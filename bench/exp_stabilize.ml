(* Experiments E17/E18: self-stabilization and the staleness cliff.

   Both are extensions of the paper's model (like E15/E16), not
   reproductions: the paper assumes the overlay starts from a valid
   configuration and its adversary's lateness is a fixed integer t.

   E17 starts the Section 4 topology from adversarially corrupted
   successor arrays — every Simnet.Corruption class at three severities —
   and runs the Core.Stabilize detect-and-repair loop next to the static
   baseline that only detects.  Expected shape (pinned by
   test/test_core_stabilize.ml): repair recovers from every class at
   severity <= 0.5 within a handful of epochs; the static baseline always
   ends with residual violations.

   E18 makes the DoS adversary's view-lateness a continuous per-round
   draw (Snapshots.Mixed with expected value t, Bernoulli on the
   fractional part) and sweeps t down into the fractional regime t < 1 to
   locate the resilience cliff: the least expected lateness at which the
   group-kill attack no longer starves or disconnects the network.  The
   cliff location lands in BENCH_e18.json as "cliff_t".

   Cells run through the sweep engine with domains:1 on purpose: the
   shared trace sink stays ordered and the BENCH summaries are
   byte-identical across runs of the same build. *)

open Exp_util

(* ---------- E17: corrupted-topology recovery ---------- *)

let e17_n = 256
let e17_d = 8
let severities = [ 0.1; 0.25; 0.5 ]

let run_e17_cell ~cls ~severity ~mode =
  (* One seed per (class, severity) shared by both modes: repair and
     static start from the identical corrupted state, so the static row
     is a true ablation of the repair row. *)
  let s =
    rng_for
      (Printf.sprintf "e17-%s" (Simnet.Corruption.class_to_string cls))
      (int_of_float (severity *. 1000.))
  in
  let corruption = Simnet.Corruption.make ~severity cls in
  let r =
    Core.Stabilize.run ~trace:(trace ()) ~mode ~corruption
      ~rng:(Prng.Stream.split s) ~n:e17_n ~d:e17_d ()
  in
  let bench =
    {
      Sweep.Agg.rounds = r.Core.Stabilize.rounds;
      total_bits = r.Core.Stabilize.bits;
      max_node_bits = 0;
    }
  in
  (r, bench)

let e17 () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E17 (self-stabilization extension) - corruption class x severity \
            x mode, n=%d, d=%d"
           e17_n e17_d)
      ~columns:
        [
          "class"; "severity"; "mode"; "recovered"; "epochs"; "rounds";
          "bits"; "initial viol"; "residual"; "patches"; "splices";
        ]
  in
  let cells =
    grid ~sweep:"e17"
      [
        Sweep.Grid.strings "class"
          (List.map Simnet.Corruption.class_to_string Simnet.Corruption.all);
        Sweep.Grid.floats "severity" severities;
        Sweep.Grid.strings "mode"
          (List.map Core.Stabilize.mode_to_string
             [ Core.Stabilize.Repair; Core.Stabilize.Static ]);
      ]
  in
  let stuck = ref 0 and static_clean = ref 0 in
  let rows, bench_total =
    sweep_rows ~domains:1 ~sweep:"e17" cells (fun cell ->
        let cls =
          match
            Simnet.Corruption.class_of_string (Sweep.Grid.binding cell "class")
          with
          | Ok c -> c
          | Error e -> failwith e
        in
        let severity = Sweep.Grid.float_binding cell "severity" in
        let mode_name = Sweep.Grid.binding cell "mode" in
        let mode =
          match Core.Stabilize.mode_of_string mode_name with
          | Ok m -> m
          | Error e -> failwith e
        in
        let r, b = run_e17_cell ~cls ~severity ~mode in
        (match mode with
        | Core.Stabilize.Repair ->
            if not r.Core.Stabilize.converged then incr stuck
        | Core.Stabilize.Static ->
            if r.Core.Stabilize.residual = [] then incr static_clean);
        ( [
            Sweep.Grid.binding cell "class";
            flt ~decimals:2 severity;
            mode_name;
            bool_c r.Core.Stabilize.converged;
            int_c r.Core.Stabilize.epochs;
            int_c r.Core.Stabilize.rounds;
            int_c r.Core.Stabilize.bits;
            int_c r.Core.Stabilize.initial_violations;
            int_c (List.length r.Core.Stabilize.residual);
            int_c r.Core.Stabilize.patches;
            int_c r.Core.Stabilize.splices;
          ],
          b ))
  in
  List.iter (Stats.Table.add_row table) rows;
  Stats.Table.note table
    "repair detects violations locally (Simnet.Invariants), patches \
     non-permutation pointers, splices disjoint orbits, then re-randomizes \
     through the Section 4 reconfiguration path; static only detects, so \
     its residual count equals the damage that persists forever";
  Stats.Table.note table
    (Printf.sprintf
       "verdict: %d/%d repair cells stuck (expect 0), %d/%d static cells \
        accidentally clean (expect 0)"
       !stuck
       (List.length rows / 2)
       !static_clean
       (List.length rows / 2));
  Stats.Table.print table;
  set_extra "repair_stuck_cells" (string_of_int !stuck);
  set_extra "static_clean_cells" (string_of_int !static_clean);
  bench_total

(* ---------- E18: the staleness resilience cliff ---------- *)

let e18_windows = 8

let run_e18_cell ~n ~strategy ~staleness ~frac =
  let s =
    rng_for
      (Printf.sprintf "e18-%s-%s"
         (Core.Dos_adversary.to_string strategy)
         (Simnet.Snapshots.staleness_to_string staleness))
      n
  in
  let net =
    Core.Dos_network.create ~c:2.0 ~trace:(trace ()) ~rng:(Prng.Stream.split s)
      ~n ()
  in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create ~trace:(trace ()) ~staleness strategy
      ~rng:(Prng.Stream.split s)
      ~lateness:(Simnet.Snapshots.staleness_max staleness)
      ~frac
  in
  let ok = ref 0 in
  let rounds = e18_windows * Core.Dos_network.period net in
  for _ = 1 to rounds do
    Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
      (fun () -> Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if r.Core.Dos_network.starved_groups = 0 && r.Core.Dos_network.connected
    then incr ok
  done;
  (rounds, !ok)

let e18 () =
  let n = 4096 in
  let probe = Core.Dos_network.create ~c:2.0 ~rng:(rng_for "e18p" 0) ~n () in
  let p = Core.Dos_network.period probe in
  (* Expected lateness, densest in the fractional regime where the cliff's
     approach is invisible to an integer-lateness sweep like E9's. *)
  let ts =
    [ 0.0; 0.25; 0.5; 1.0; 2.0; float_of_int (p / 2); float_of_int p;
      float_of_int (2 * p) ]
  in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E18 (staleness extension) - goodput vs expected view-lateness t, \
            n=%d, 25%% blocked/round, %d windows, period=%d"
           n e18_windows p)
      ~columns:
        [ "adversary"; "expected t"; "rounds"; "rounds ok"; "goodput"; "verdict" ]
  in
  let strategies =
    [ Core.Dos_adversary.Group_kill; Core.Dos_adversary.Random_blocking ]
  in
  let cells =
    grid ~sweep:"e18"
      [
        Sweep.Grid.strings "adversary"
          (List.map Core.Dos_adversary.to_string strategies);
        Sweep.Grid.floats "t" ts;
      ]
  in
  let goodputs = Hashtbl.create 16 in
  let rows, bench_total =
    sweep_rows ~domains:1 ~sweep:"e18" cells (fun cell ->
        let name = Sweep.Grid.binding cell "adversary" in
        let strategy =
          List.find
            (fun st -> Core.Dos_adversary.to_string st = name)
            strategies
        in
        let t = Sweep.Grid.float_binding cell "t" in
        let staleness = Simnet.Snapshots.Mixed t in
        let rounds, ok = run_e18_cell ~n ~strategy ~staleness ~frac:0.25 in
        let goodput = float_of_int ok /. float_of_int rounds in
        Hashtbl.replace goodputs (name, t) goodput;
        ( [
            name;
            flt ~decimals:2 t;
            int_c rounds;
            int_c ok;
            flt ~decimals:3 goodput;
            (if ok = rounds then "survives" else "degraded");
          ],
          { Sweep.Agg.rounds; total_bits = 0; max_node_bits = 0 } ))
  in
  List.iter (Stats.Table.add_row table) rows;
  (* The cliff: least swept t at which the group-kill attack never starves
     or disconnects the network.  -1 if it always bites. *)
  let kill = Core.Dos_adversary.to_string Core.Dos_adversary.Group_kill in
  let cliff_t =
    List.fold_left
      (fun acc t ->
        if acc < 0.0 && Hashtbl.find goodputs (kill, t) >= 1.0 then t else acc)
      (-1.0) ts
  in
  Stats.Table.note table
    "expected t draws per-round lateness as floor(t) + Bernoulli(frac t): \
     t=0.25 means one round in four the adversary's view is one round old, \
     otherwise current - the fractional regime an integer sweep (E9) \
     cannot resolve";
  Stats.Table.note table
    (Printf.sprintf
       "paper (Theorem 6): survival needs lateness >= the reconfiguration \
        period; cliff located at expected t = %s"
       (Stats.Float_text.repr cliff_t));
  Stats.Table.print table;
  set_extra "cliff_t" (Stats.Float_text.json_repr cliff_t);
  set_extra "period" (string_of_int p);
  bench_total

(* Experiments E8-E10: the DoS-resistant networks of Sections 5 and 6.

   E8 regenerates the concentration statements (Lemma 16: group sizes;
   Lemma 17: a (1/2-eps)-bounded attack leaves every group
   majority-available).  E9 regenerates Theorem 6 as a lateness sweep: the
   survival crossover sits at the reconfiguration period (ablation A4).
   E10 regenerates Theorem 7 / Lemma 18 for the combined churn+DoS
   network. *)

open Exp_util

(* ---------- E8: group concentration (Lemmas 16/17) ---------- *)

let e8 () =
  let table =
    Stats.Table.create
      ~title:"E8 (Lemmas 16/17) - group sizes and attack exposure"
      ~columns:
        [
          "n"; "groups"; "size min/mean/max"; "eps"; "attack draws";
          "min avail frac"; "groups < half avail"; "groups starved";
        ]
  in
  let note, bench_total = tally () in
  List.iter
    (fun n ->
      let s = rng_for "e8" n in
      let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n () in
      (* run one clean window so the sizes come from the sampling primitive,
         not the initial scatter *)
      for _ = 1 to Core.Dos_network.period net do
        ignore (Core.Dos_network.run_round net ~blocked:(Array.make n false))
      done;
      note (Bench.rounds (Core.Dos_network.period net));
      let supernodes = Core.Dos_network.supernode_count net in
      let sizes =
        Array.init supernodes (fun x ->
            Array.length (Core.Dos_network.group_members net x))
      in
      let min_sz = Array.fold_left min max_int sizes in
      let max_sz = Array.fold_left max 0 sizes in
      let mean_sz = float_of_int n /. float_of_int supernodes in
      List.iter
        (fun eps ->
          let draws = 300 in
          let frac = 0.5 -. eps in
          let budget = int_of_float (frac *. float_of_int n) in
          let min_avail = ref 1.0 in
          let below_half = ref 0 and starved = ref 0 in
          for _ = 1 to draws do
            let blocked = Array.make n false in
            Array.iter
              (fun v -> blocked.(v) <- true)
              (Prng.Stream.sample_distinct s n ~k:budget);
            for x = 0 to supernodes - 1 do
              let members = Core.Dos_network.group_members net x in
              let avail =
                Array.fold_left
                  (fun a v -> if blocked.(v) then a else a + 1)
                  0 members
              in
              let fraction =
                float_of_int avail /. float_of_int (Array.length members)
              in
              if fraction < !min_avail then min_avail := fraction;
              if 2 * avail < Array.length members then incr below_half;
              if avail = 0 then incr starved
            done
          done;
          Stats.Table.add_row table
            [
              int_c n;
              int_c supernodes;
              Printf.sprintf "%d/%.1f/%d" min_sz mean_sz max_sz;
              flt ~decimals:2 eps;
              int_c draws;
              flt ~decimals:3 !min_avail;
              int_c !below_half;
              int_c !starved;
            ])
        [ 0.1; 0.25; 0.4 ])
    [ 4096; 16384 ];
  Stats.Table.note table
    "paper: for suitable c, a (1/2-eps)-bounded attacker blocks strictly \
     less than half of every group, w.h.p. (Lemma 17); group sizes are \
     within (1 +- delta) n/N (Lemma 16)";
  Stats.Table.print table;
  bench_total ()

(* ---------- E9: lateness crossover (Theorem 6, ablation A4) ---------- *)

let run_dos_scenario ~n ~strategy ~lateness ~frac ~windows =
  let s =
    rng_for
      (Printf.sprintf "e9-%s-%d" (Core.Dos_adversary.to_string strategy) lateness)
      n
  in
  let net =
    Core.Dos_network.create ~c:2.0 ~trace:(trace ())
      ~rng:(Prng.Stream.split s) ~n ()
  in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create ~trace:(trace ()) strategy
      ~rng:(Prng.Stream.split s) ~lateness ~frac
  in
  let starved = ref 0 and disconnected = ref 0 in
  let rounds = windows * Core.Dos_network.period net in
  for _ = 1 to rounds do
    Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
      (fun () -> Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if r.Core.Dos_network.starved_groups > 0 then incr starved;
    if not r.Core.Dos_network.connected then incr disconnected
  done;
  (Core.Dos_network.period net, rounds, !starved, !disconnected)

let e9 () =
  let n = 4096 in
  let probe = Core.Dos_network.create ~c:2.0 ~rng:(rng_for "e9p" 0) ~n () in
  let p = Core.Dos_network.period probe in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E9 (Theorem 6, ablation A4) - survival vs adversary lateness, \
            n=%d, (1/2-eps)=25%% blocked/round, period=%d"
           n p)
      ~columns:
        [
          "adversary"; "lateness"; "rounds"; "starved rounds";
          "disconnected rounds"; "verdict";
        ]
  in
  let note, bench_total = tally () in
  List.iter
    (fun strategy ->
      List.iter
        (fun lateness ->
          let _, rounds, starved, disconnected =
            run_dos_scenario ~n ~strategy ~lateness ~frac:0.25 ~windows:8
          in
          note (Bench.rounds rounds);
          Stats.Table.add_row table
            [
              Core.Dos_adversary.to_string strategy;
              int_c lateness;
              int_c rounds;
              int_c starved;
              int_c disconnected;
              (if starved = 0 && disconnected = 0 then "survives" else "KILLED");
            ])
        [ 0; p / 2; p; 2 * p ])
    Core.Dos_adversary.all;
  Stats.Table.note table
    "paper: any low-degree network dies against a 0-late adversary (Sec \
     1.1); with lateness >= the reconfiguration period = Theta(log log n) \
     rounds, connectivity holds w.h.p. (Theorem 6) - the crossover sits at \
     the period";
  Stats.Table.print table;
  bench_total ()

(* ---------- E10: combined churn + DoS (Theorem 7 / Lemma 18) ---------- *)

let e10 () =
  let table =
    Stats.Table.create
      ~title:
        "E10 (Theorem 7 / Lemma 18) - combined churn + DoS, n0=4096, 20 \
         windows, group-kill adversary (late), 25% blocked/round"
      ~columns:
        [
          "churn gamma"; "windows ok"; "starved rounds"; "disc rounds";
          "dim spread max"; "Eq(1) violations"; "splits"; "merges";
          "final n"; "final supernodes";
        ]
  in
  let note, bench_total = tally () in
  List.iter
    (fun gamma ->
      let s = rng_for "e10" (int_of_float (gamma *. 100.)) in
      let net =
        Core.Churndos_network.create ~rng:(Prng.Stream.split s) ~n:4096 ()
      in
      let cube = Topology.Hypercube.create 12 in
      let adv =
        Core.Dos_adversary.create Core.Dos_adversary.Group_kill
          ~rng:(Prng.Stream.split s)
          ~lateness:(2 * Core.Churndos_network.period net)
          ~frac:0.25
      in
      let blocked_for_round ~round:_ ~group_of ~n =
        Core.Dos_adversary.observe adv ~epoch:(Core.Churndos_network.epoch net)
          (fun () -> Array.copy group_of);
        Core.Dos_adversary.blocked_set adv ~cube ~n
      in
      let ok = ref 0 and starved = ref 0 and disc = ref 0 in
      let spread = ref 0 and viol = ref 0 and splits = ref 0 and merges = ref 0 in
      let windows = 20 in
      for w = 1 to windows do
        let n = Core.Churndos_network.n net in
        (* alternate growth and shrink by a factor gamma per window *)
        let joins, leave_frac =
          if w mod 2 = 1 then (int_of_float ((gamma -. 1.0) *. float_of_int n), 0.0)
          else (0, 1.0 -. (1.0 /. gamma))
        in
        let r =
          Core.Churndos_network.run_window net ~blocked_for_round ~joins
            ~leave_frac
        in
        note (Bench.rounds (Core.Churndos_network.period net));
        if r.Core.Churndos_network.reconfigured then incr ok;
        starved := !starved + r.Core.Churndos_network.starved_rounds;
        disc := !disc + r.Core.Churndos_network.disconnected_rounds;
        spread := max !spread r.Core.Churndos_network.dim_spread;
        viol := !viol + r.Core.Churndos_network.eq1_violations;
        splits := !splits + r.Core.Churndos_network.splits;
        merges := !merges + r.Core.Churndos_network.merges
      done;
      Stats.Table.add_row table
        [
          flt ~decimals:1 gamma;
          Printf.sprintf "%d/%d" !ok windows;
          int_c !starved;
          int_c !disc;
          int_c !spread;
          int_c !viol;
          int_c !splits;
          int_c !merges;
          int_c (Core.Churndos_network.n net);
          int_c (Core.Churndos_network.supernode_count net);
        ])
    [ 1.3; 2.0 ];
  Stats.Table.note table
    "paper: connectivity is maintained under simultaneous churn (rate \
     gamma^(1/Theta(log log n)) per round = factor gamma per window) and a \
     (1/2-eps)-bounded late attack (Theorem 7); dimensions stay within a \
     spread of 2 and Equation (1) holds (Lemma 18)";
  Stats.Table.print table;
  bench_total ()

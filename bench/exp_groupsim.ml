(* Experiment E13: message-level validation of the Section 5 group
   machinery (Lemmas 14/15).

   Dos_network (used by E8-E10) advances one canonical state per group; this
   experiment replays the same protocol with Group_sim, where every
   representative physically broadcasts proposals and states and blocked
   nodes really miss messages.  It verifies (a) the simulated primitive
   still samples uniformly, (b) availability failures are exactly the
   starvation events the canonical model predicts, and (c) the real
   communication work per node stays polylogarithmic even with the group
   broadcast overhead — the claim behind Theorem 6's work bound. *)

open Exp_util

let scenario ~label ~n ~cube ~blocked_for_round =
  let supernodes = Topology.Hypercube.node_count cube in
  let s = rng_for ("e13" ^ label) n in
  let group_of = Array.init n (fun _ -> Prng.Stream.int s supernodes) in
  let proto = Core.Supernode_sampling.protocol ~c:2.0 ~cube () in
  let gs = Core.Group_sim.create ~rng:(Prng.Stream.split s) ~n ~group_of proto in
  Core.Group_sim.run_all gs ~blocked_for_round:(blocked_for_round s group_of);
  let lost = List.length (Core.Group_sim.lost_groups gs) in
  let counts = Array.make supernodes 0 in
  let underflows = ref 0 in
  for x = 0 to supernodes - 1 do
    match Core.Group_sim.state_of gs x with
    | None -> ()
    | Some st ->
        underflows := !underflows + Core.Supernode_sampling.underflows st;
        Array.iter
          (fun v -> counts.(v) <- counts.(v) + 1)
          (Core.Supernode_sampling.samples st)
  done;
  let p =
    if lost = supernodes then 0.0 else Stats.Chi_square.test_uniform counts
  in
  let m = Core.Group_sim.metrics gs in
  ( Core.Group_sim.network_rounds_total gs,
    lost,
    supernodes,
    !underflows,
    p,
    Simnet.Metrics.max_node_bits_ever m,
    Simnet.Metrics.total_msgs m,
    Bench.of_metrics m )

let e13 () =
  let table =
    Stats.Table.create
      ~title:
        "E13 (Lemmas 14/15) - message-level group simulation of the \
         supernode sampling primitive"
      ~columns:
        [
          "n"; "scenario"; "net rounds"; "lost groups"; "underflows";
          "chi2 p (samples)"; "max work (bits/round)"; "messages";
        ]
  in
  (* n x scenario grid through the sweep engine: n rides on the cell
     scenario (validated like the CLI's -n), the disruption label is a
     free axis the cell function interprets *)
  let cells =
    grid ~sweep:"e13"
      [
        Sweep.Grid.scenario_key "n" [ "1024"; "4096" ];
        Sweep.Grid.strings "scenario"
          [ "clean"; "random 25%"; "kill one group" ];
      ]
  in
  let rows, bench13 =
    sweep_rows ~sweep:"e13" cells (fun cell ->
        let n = Sweep.Grid.int_binding cell "n" in
        let label = Sweep.Grid.binding cell "scenario" in
        let d = Core.Params.dos_dimension ~c:2.0 ~n in
        let cube = Topology.Hypercube.create d in
        let blocked s group_of ~round =
          match label with
          | "clean" -> Array.make n false
          | "random 25%" ->
              let b = Array.make n false in
              Array.iter
                (fun v -> b.(v) <- true)
                (Prng.Stream.sample_distinct s n ~k:(n / 4));
              b
          | _ ->
              let b = Array.make n false in
              if round < 3 then
                Array.iteri (fun v g -> if g = 0 then b.(v) <- true) group_of;
              b
        in
        let rounds, lost, supernodes, underflows, p, work, msgs, b =
          scenario ~label ~n ~cube ~blocked_for_round:blocked
        in
        ( [
            int_c n;
            label;
            int_c rounds;
            Printf.sprintf "%d/%d" lost supernodes;
            int_c underflows;
            flt ~decimals:3 p;
            int_c work;
            int_c msgs;
          ],
          b ))
  in
  List.iter (Stats.Table.add_row table) rows;
  Stats.Table.note table
    "paper: if every group keeps an available node each round, the groups \
     simulate the primitive correctly (Lemma 14) and can rebuild themselves \
     (Lemma 15); killing a whole group for one simulation step loses \
     exactly that supernode's state; work stays polylog despite every \
     member broadcasting every proposal";
  Stats.Table.print table;
  (* E13b: the Theorem 6 lateness crossover re-run with the message-level
     backend - the whole network, every proposal and response a real
     blocked-able message. *)
  let n = 1024 in
  let table_b =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E13b (Theorem 6, message level) - survival vs lateness with the \
            Group_sim execution backend, n=%d, 25%% blocked/round" n)
      ~columns:
        [ "adversary"; "lateness"; "rounds"; "starved"; "windows ok"; "verdict" ]
  in
  let probe =
    Core.Dos_network.create ~c:2.0 ~rng:(rng_for "e13bp" 0) ~n ()
  in
  let p = Core.Dos_network.period probe in
  (* four hand-picked (strategy, lateness) pairs, not a product: a
     single free axis whose labels the cell function decodes *)
  let cases =
    [
      ("random-0", (Core.Dos_adversary.Random_blocking, 0));
      ("group-kill-0", (Core.Dos_adversary.Group_kill, 0));
      ("group-kill-period", (Core.Dos_adversary.Group_kill, p));
      ("group-kill-2period", (Core.Dos_adversary.Group_kill, 2 * p));
    ]
  in
  let cells_b =
    grid ~sweep:"e13b" [ Sweep.Grid.strings "case" (List.map fst cases) ]
  in
  let rows_b, bench_b =
    sweep_rows ~sweep:"e13b" cells_b (fun cell ->
        let strategy, lateness =
          List.assoc (Sweep.Grid.binding cell "case") cases
        in
        let s =
          rng_for
            (Printf.sprintf "e13b-%s-%d"
               (Core.Dos_adversary.to_string strategy)
               lateness)
            n
        in
        let net =
          Core.Dos_network.create ~c:2.0 ~backend:Core.Dos_network.Message_level
            ~rng:(Prng.Stream.split s) ~n ()
        in
        let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
        let adv =
          Core.Dos_adversary.create strategy ~rng:(Prng.Stream.split s) ~lateness
            ~frac:0.25
        in
        let rounds = 5 * p in
        let starved = ref 0 in
        for _ = 1 to rounds do
          Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
            (fun () -> Core.Dos_network.group_of net);
          let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
          let r = Core.Dos_network.run_round net ~blocked in
          if r.Core.Dos_network.starved_groups > 0 then incr starved
        done;
        let ok =
          match Core.Dos_network.last_window net with
          | Some w -> if w.Core.Dos_network.reconfigured then 1 else 0
          | None -> 0
        in
        ( [
            Core.Dos_adversary.to_string strategy;
            int_c lateness;
            int_c rounds;
            int_c !starved;
            Printf.sprintf "last window %s" (if ok = 1 then "ok" else "FAILED");
            (if !starved = 0 then "survives" else "KILLED");
          ],
          Bench.rounds rounds ))
  in
  List.iter (Stats.Table.add_row table_b) rows_b;
  Stats.Table.note table_b
    "same crossover as E9, with zero modelling shortcuts: the adversary's \
     blocked sets hit the actual protocol messages";
  Stats.Table.print table_b;
  Bench.add bench13 bench_b

(* Tests for the message-level group simulation (Group_sim) and the
   supernode sampling protocol — the unabridged version of Section 5's
   machinery, validating the canonical-state shortcut in Dos_network. *)

let rng () = Testutil.rng ()

(* A trivial counting protocol: every supernode adds, at each step, the
   number of messages it received plus one, and pings all its hypercube
   neighbors.  Deterministic, so every replica proposes identically. *)
let counting_protocol ~cube ~steps =
  let neighbors x = Topology.Hypercube.neighbors cube x in
  {
    Core.Group_sim.init = (fun ~supernode:_ ~rng:_ -> 0);
    step =
      (fun ~supernode ~step_index:_ count ~inbox ~rng:_ ->
        let received = List.length inbox in
        (count + received + 1, Array.to_list (neighbors supernode) |> List.map (fun y -> (y, ()))));
    steps;
    state_bits = (fun _ -> 32);
    msg_bits = (fun () -> 8);
  }

let uniform_groups ~n ~supernodes = Array.init n (fun v -> v mod supernodes)

let test_counting_no_blocking () =
  (* With d-regular pings and no blocking, after s full steps every
     supernode's count is s + (s - 1) * d: the first step delivers no
     messages (none were in flight), later steps deliver d each. *)
  let cube = Topology.Hypercube.create 3 in
  let supernodes = Topology.Hypercube.node_count cube in
  let n = 64 in
  let proto = counting_protocol ~cube ~steps:4 in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n
      ~group_of:(uniform_groups ~n ~supernodes)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ -> Array.make n false);
  Alcotest.(check (list int)) "no losses" [] (Core.Group_sim.lost_groups gs);
  for x = 0 to supernodes - 1 do
    match Core.Group_sim.state_of gs x with
    | None -> Alcotest.fail "missing state"
    | Some count ->
        Alcotest.(check int) "deterministic count" (4 + (3 * 3)) count
  done

let test_rounds_accounting () =
  let cube = Topology.Hypercube.create 3 in
  let n = 32 in
  let proto = counting_protocol ~cube ~steps:5 in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n ~group_of:(uniform_groups ~n ~supernodes:8)
      proto
  in
  Alcotest.(check int) "2 rounds per step" 10
    (Core.Group_sim.network_rounds_total gs);
  Alcotest.(check bool) "not finished" false (Core.Group_sim.finished gs);
  for _ = 1 to 10 do
    Core.Group_sim.run_round gs ~blocked:(Array.make n false)
  done;
  Alcotest.(check bool) "finished" true (Core.Group_sim.finished gs);
  Alcotest.check_raises "running past the end"
    (Invalid_argument "Group_sim.run_round: already finished") (fun () ->
      Core.Group_sim.run_round gs ~blocked:(Array.make n false))

let test_blocked_member_resyncs () =
  let cube = Topology.Hypercube.create 2 in
  let n = 16 in
  let group_of = uniform_groups ~n ~supernodes:4 in
  let proto = counting_protocol ~cube ~steps:4 in
  let gs = Core.Group_sim.create ~rng:(rng ()) ~n ~group_of proto in
  (* Block node 0 (a member of group 0) for the first two rounds; the rest
     of its group carries the state, and node 0 re-syncs afterwards. *)
  for r = 0 to 7 do
    let blocked = Array.make n false in
    if r < 2 then blocked.(0) <- true;
    Core.Group_sim.run_round gs ~blocked
  done;
  Alcotest.(check (list int)) "no losses" [] (Core.Group_sim.lost_groups gs);
  Alcotest.(check int) "everyone back in sync" 4
    (Core.Group_sim.synced_members gs 0)

let test_whole_group_blocked_loses_state () =
  let cube = Topology.Hypercube.create 2 in
  let n = 16 in
  let group_of = uniform_groups ~n ~supernodes:4 in
  let proto = counting_protocol ~cube ~steps:4 in
  let gs = Core.Group_sim.create ~rng:(rng ()) ~n ~group_of proto in
  (* Block every member of group 2 across one full simulation+sync pair:
     nothing is proposed for it, so the supernode state is gone. *)
  for r = 0 to 7 do
    let blocked = Array.make n false in
    if r < 3 then Array.iteri (fun v g -> if g = 2 then blocked.(v) <- true) group_of;
    Core.Group_sim.run_round gs ~blocked
  done;
  Alcotest.(check (list int)) "group 2 lost" [ 2 ] (Core.Group_sim.lost_groups gs);
  Alcotest.(check bool) "state gone" true (Core.Group_sim.state_of gs 2 = None)

let test_lost_matches_canonical_model () =
  (* Differential check of the DESIGN.md fidelity claim: under the same
     blocking pattern, Group_sim loses a group iff the canonical
     availability criterion (some simulation round with no available
     member) fails for it. *)
  let cube = Topology.Hypercube.create 3 in
  let supernodes = Topology.Hypercube.node_count cube in
  let n = 96 in
  let group_of = uniform_groups ~n ~supernodes in
  let proto = counting_protocol ~cube ~steps:4 in
  let s = rng () in
  for _trial = 1 to 10 do
    let gs = Core.Group_sim.create ~rng:(Prng.Stream.split s) ~n ~group_of proto in
    (* random blocking pattern, drawn once per round *)
    let rounds = Core.Group_sim.network_rounds_total gs in
    let patterns =
      Array.init rounds (fun _ ->
          let b = Array.make n false in
          Array.iter
            (fun v -> b.(v) <- true)
            (Prng.Stream.sample_distinct s n ~k:(n * 2 / 5));
          b)
    in
    (* canonical prediction: group x is lost iff in some simulation round r
       (even r) every member is blocked at r, or was blocked at r-1 while
       staying in need of resync...  The exact criterion the simulation
       implements: a member can propose at simulation round r iff it is
       non-blocked at r and it adopted at sync round r-1, i.e. it was
       non-blocked at r-1 and r-2's proposals existed.  For the canonical
       model we replay exactly that recursion on availability bits. *)
    let lost_pred = Array.make supernodes false in
    let synced = Array.make n true in
    for r = 0 to rounds - 1 do
      let blocked = patterns.(r) in
      if r mod 2 = 0 then begin
        (* simulation round: does any synced non-blocked member exist? *)
        let proposed = Array.make supernodes false in
        for v = 0 to n - 1 do
          if synced.(v) && not blocked.(v) then proposed.(group_of.(v)) <- true
        done;
        Array.iteri
          (fun x p -> if not p then lost_pred.(x) <- true)
          proposed;
        (* sync round r+1: member v adopts iff non-blocked at r and r+1 and
           its group proposed *)
        if r + 1 <= rounds - 1 then begin
          let blocked' = patterns.(r + 1) in
          for v = 0 to n - 1 do
            synced.(v) <-
              proposed.(group_of.(v))
              && (not blocked.(v))
              && not blocked'.(v)
          done
        end
      end
    done;
    let r = ref 0 in
    while not (Core.Group_sim.finished gs) do
      Core.Group_sim.run_round gs ~blocked:patterns.(!r);
      incr r
    done;
    let actual = Array.make supernodes false in
    List.iter (fun x -> actual.(x) <- true) (Core.Group_sim.lost_groups gs);
    Alcotest.(check (array bool)) "lost sets agree" lost_pred actual
  done

let test_sampling_protocol_uniform () =
  let cube = Topology.Hypercube.create 5 in
  let supernodes = Topology.Hypercube.node_count cube in
  let n = 256 in
  let proto = Core.Supernode_sampling.protocol ~c:3.0 ~cube () in
  let counts = Array.make supernodes 0 in
  let underflows = ref 0 in
  List.iter
    (fun seed ->
      let gs =
        Core.Group_sim.create
          ~rng:(Prng.Stream.of_seed seed)
          ~n
          ~group_of:(uniform_groups ~n ~supernodes)
          proto
      in
      Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
          Array.make n false);
      Alcotest.(check (list int)) "no losses" [] (Core.Group_sim.lost_groups gs);
      for x = 0 to supernodes - 1 do
        match Core.Group_sim.state_of gs x with
        | None -> Alcotest.fail "state missing"
        | Some st ->
            underflows := !underflows + Core.Supernode_sampling.underflows st;
            Array.iter
              (fun v -> counts.(v) <- counts.(v) + 1)
              (Core.Supernode_sampling.samples st)
      done)
    [ 21L; 22L; 23L ];
  Alcotest.(check int) "no underflows" 0 !underflows;
  Alcotest.(check bool) "samples uniform over supernodes" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_sampling_protocol_dimension_one () =
  (* d = 1 (what Params.dos_dimension gives for n = 3..40): Alg. 2 has no
     doubling iteration, so the one supernode round sends nothing and each
     supernode keeps its Phase-1 draws over {x, flip x 0}. *)
  let cube = Topology.Hypercube.create 1 in
  let n = 8 and c = 2.0 in
  let proto = Core.Supernode_sampling.protocol ~c ~cube () in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n
      ~group_of:(uniform_groups ~n ~supernodes:2)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
      Array.make n false);
  Alcotest.(check int) "one supernode round" 2
    (Core.Group_sim.network_rounds_total gs);
  Alcotest.(check (list int)) "no losses" [] (Core.Group_sim.lost_groups gs);
  let m0 = (Core.Params.schedule_hypercube ~eps:0.5 ~c ~n:2 ~iters:0).(0) in
  for x = 0 to 1 do
    match Core.Group_sim.state_of gs x with
    | None -> Alcotest.fail "state missing"
    | Some st ->
        let samples = Core.Supernode_sampling.samples st in
        Alcotest.(check int) "Phase-1 draws kept" m0 (Array.length samples);
        Alcotest.(check int) "no underflows" 0
          (Core.Supernode_sampling.underflows st);
        Alcotest.(check bool) "samples are supernodes" true
          (Array.for_all (fun v -> v = 0 || v = 1) samples)
  done

let test_sampling_protocol_under_blocking () =
  (* 25% random blocking per round must not stop the simulated primitive:
     every group keeps an available member w.h.p. at these sizes. *)
  let cube = Topology.Hypercube.create 4 in
  let supernodes = Topology.Hypercube.node_count cube in
  let n = 512 in
  let proto = Core.Supernode_sampling.protocol ~c:2.0 ~cube () in
  let s = rng () in
  let gs =
    Core.Group_sim.create ~rng:(Prng.Stream.split s) ~n
      ~group_of:(uniform_groups ~n ~supernodes)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
      let b = Array.make n false in
      Array.iter
        (fun v -> b.(v) <- true)
        (Prng.Stream.sample_distinct s n ~k:(n / 4));
      b);
  Alcotest.(check (list int)) "no losses under 25% blocking" []
    (Core.Group_sim.lost_groups gs);
  for x = 0 to supernodes - 1 do
    match Core.Group_sim.state_of gs x with
    | None -> Alcotest.fail "state missing"
    | Some st ->
        Alcotest.(check bool) "samples delivered" true
          (Array.length (Core.Supernode_sampling.samples st) > 0)
  done

let test_sampling_matches_direct_round_count () =
  (* The group simulation costs exactly two network rounds per supernode
     round, and the supernode protocol runs 2 ceil(log2 d) + 1 rounds —
     matching the paper's Theta(log log n) claim for the whole rebuild. *)
  let cube = Topology.Hypercube.create 8 in
  let proto = Core.Supernode_sampling.protocol ~cube () in
  let n = 2048 in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n
      ~group_of:(uniform_groups ~n ~supernodes:256)
      proto
  in
  let direct = Core.Rapid_hypercube.run ~rng:(rng ()) cube in
  Alcotest.(check int) "2 * (2 ceil(log2 d) + 1) network rounds"
    (2 * (direct.Core.Sampling_result.rounds + 1))
    (Core.Group_sim.network_rounds_total gs)

let test_metrics_charged () =
  let cube = Topology.Hypercube.create 3 in
  let n = 64 in
  let proto = counting_protocol ~cube ~steps:3 in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n ~group_of:(uniform_groups ~n ~supernodes:8)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ -> Array.make n false);
  let m = Core.Group_sim.metrics gs in
  Alcotest.(check bool) "messages counted" true (Simnet.Metrics.total_msgs m > 0);
  Alcotest.(check bool) "bits counted" true (Simnet.Metrics.total_bits m > 0)

(* One group of two members running one step of a protocol that sends
   nothing: every proposal costs exactly [proposal_bits], so each copy's
   charge is exact.  Returns the run's metrics. *)
let proposal_bits = 10 + Simnet.Msg_size.header_bits

let two_member_metrics ?faults ~blocked () =
  let proto =
    {
      Core.Group_sim.init = (fun ~supernode:_ ~rng:_ -> ());
      step = (fun ~supernode:_ ~step_index:_ () ~inbox:_ ~rng:_ -> ((), []));
      steps = 1;
      state_bits = (fun () -> 10);
      msg_bits = (fun () -> 8);
    }
  in
  let gs =
    Core.Group_sim.create ?faults ~rng:(rng ()) ~n:2 ~group_of:[| 0; 0 |] proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round ->
      Array.init 2 (fun v -> blocked ~round v));
  Core.Group_sim.metrics gs

let test_metrics_accounting () =
  (* Both members propose to both: four copies sent, four received. *)
  let m = two_member_metrics ~blocked:(fun ~round:_ _ -> false) () in
  Alcotest.(check int) "every copy delivered" 4 (Simnet.Metrics.total_msgs m);
  Alcotest.(check int) "bits counted on both ends" (8 * proposal_bits)
    (Simnet.Metrics.total_bits m)

let test_metrics_not_charged_when_dropped () =
  (* Member 1 is blocked in the simulation round: it proposes nothing, and
     member 0's copy to it is refused at send time, so only member 0's
     copy to itself is charged, once per end. *)
  let m = two_member_metrics ~blocked:(fun ~round v -> round = 0 && v = 1) () in
  Alcotest.(check int) "one copy delivered" 1 (Simnet.Metrics.total_msgs m);
  Alcotest.(check int) "refused copy not charged" (2 * proposal_bits)
    (Simnet.Metrics.total_bits m);
  (* The same holds for a copy to a crashed member. *)
  let m =
    two_member_metrics
      ~faults:(Simnet.Faults.make ~crash:1 ~crash_round:0 ())
      ~blocked:(fun ~round:_ _ -> false)
      ()
  in
  Alcotest.(check int) "one copy delivered past a crash" 1
    (Simnet.Metrics.total_msgs m);
  Alcotest.(check int) "copy to a crashed member not charged"
    (2 * proposal_bits) (Simnet.Metrics.total_bits m)

let test_metrics_not_charged_on_delivery_block () =
  (* All four copies pass the send-time checks, so their senders pay;
     member 1 is blocked in the synchronization round, so its two copies
     are lost at delivery and never charged to it. *)
  let m = two_member_metrics ~blocked:(fun ~round v -> round = 1 && v = 1) () in
  Alcotest.(check int) "two copies delivered" 2 (Simnet.Metrics.total_msgs m);
  Alcotest.(check int) "only the send side charged for lost copies"
    (6 * proposal_bits) (Simnet.Metrics.total_bits m)

let test_wire_priced_once () =
  (* A wire is priced when it is built, never per copy: one state price
     per proposal, and one message price per message a proposal or a
     forwarded bundle carries.  In a clean run every member of a group
     adopts the lowest-id member's proposal, whose bundles are built once
     and shared, so bundles carry 1/8 of the proposals' messages. *)
  let cube = Topology.Hypercube.create 3 in
  let base = counting_protocol ~cube ~steps:3 in
  let proposals = ref 0 and out_msgs = ref 0 in
  let state_prices = ref 0 and msg_prices = ref 0 in
  let proto =
    {
      base with
      Core.Group_sim.step =
        (fun ~supernode ~step_index st ~inbox ~rng ->
          let ((_, out) as r) = base.step ~supernode ~step_index st ~inbox ~rng in
          incr proposals;
          out_msgs := !out_msgs + List.length out;
          r);
      state_bits =
        (fun st ->
          incr state_prices;
          base.state_bits st);
      msg_bits =
        (fun m ->
          incr msg_prices;
          base.msg_bits m);
    }
  in
  let n = 64 in
  let gs =
    Core.Group_sim.create ~rng:(rng ()) ~n
      ~group_of:(uniform_groups ~n ~supernodes:8)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ -> Array.make n false);
  Alcotest.(check int) "proposals made" (n * 3) !proposals;
  Alcotest.(check int) "one state price per proposal" !proposals !state_prices;
  Alcotest.(check int) "one price per built message"
    (!out_msgs + (!out_msgs / 8))
    !msg_prices

let test_late_wires_ignored () =
  (* A delay of two rounds carries a Proposal into the next step's
     synchronization round and a Super bundle into the next step's
     simulation round.  Late means lost: no stale state is adopted ... *)
  let plan = Simnet.Faults.make ~delay_p:0.3 ~delay_max:2 ~seed:5L () in
  let steps = 6 and n = 64 in
  let proto =
    {
      Core.Group_sim.init = (fun ~supernode:_ ~rng:_ -> 0);
      step = (fun ~supernode:_ ~step_index:_ st ~inbox:_ ~rng:_ -> (st + 1, []));
      steps;
      state_bits = (fun _ -> 8);
      msg_bits = (fun () -> 8);
    }
  in
  let gs =
    Core.Group_sim.create ~faults:plan ~rng:(rng ()) ~n
      ~group_of:(uniform_groups ~n ~supernodes:8)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ -> Array.make n false);
  for x = 0 to 7 do
    match Core.Group_sim.state_of gs x with
    | None -> ()
    | Some st -> Alcotest.(check int) "adopted state is current" steps st
  done;
  (* ... and no stale sampling request reaches the next iteration. *)
  let cube = Topology.Hypercube.create 4 in
  let n = 512 in
  let gs =
    Core.Group_sim.create
      ~faults:(Simnet.Faults.make ~delay_p:0.3 ~delay_max:2 ~seed:7L ())
      ~rng:(Prng.Stream.of_seed 7L) ~n
      ~group_of:(uniform_groups ~n ~supernodes:16)
      (Core.Supernode_sampling.protocol ~cube ())
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ -> Array.make n false);
  Alcotest.(check bool) "run finished" true (Core.Group_sim.finished gs)

let test_virtual_sampling_weighted_distribution () =
  (* The Section 6 weighted primitive executed at message level: groups of
     a variable-dimension tree sample leaves with probability 2^-d(x). *)
  let tree = Core.Split_merge.create () in
  Core.Split_merge.add_leaf tree { Core.Split_merge.bits = 0b0; dim = 1 } ();
  Core.Split_merge.add_leaf tree { Core.Split_merge.bits = 0b01; dim = 2 } ();
  Core.Split_merge.add_leaf tree { Core.Split_merge.bits = 0b11; dim = 2 } ();
  (* the virtual cube has only 4 labels, so give the schedule plenty of
     slack; a few underflows would merely shorten the pools *)
  let proto = Virtual_sampling.protocol ~eps:1.0 ~c:16.0 ~tree () in
  let n = 96 in
  (* 3 leaves; uniform_groups gives each a third of the nodes *)
  let counts = Array.make 3 0 in
  List.iter
    (fun seed ->
      let gs =
        Core.Group_sim.create
          ~rng:(Prng.Stream.of_seed seed)
          ~n
          ~group_of:(uniform_groups ~n ~supernodes:3)
          proto
      in
      Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
          Array.make n false);
      Alcotest.(check (list int)) "no losses" [] (Core.Group_sim.lost_groups gs);
      for x = 0 to 2 do
        match Core.Group_sim.state_of gs x with
        | None -> Alcotest.fail "state missing"
        | Some st ->
            Array.iter
              (fun leaf -> counts.(leaf) <- counts.(leaf) + 1)
              (Virtual_sampling.samples st)
      done)
    [ 31L; 32L; 33L; 34L; 35L; 36L ];
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let p0 = float_of_int counts.(0) /. total in
  Alcotest.(check bool)
    (Printf.sprintf "P(dim-1 leaf) = %.3f ~ 0.5" p0)
    true
    (abs_float (p0 -. 0.5) < 0.06);
  let p1 = float_of_int counts.(1) /. total in
  Alcotest.(check bool)
    (Printf.sprintf "P(dim-2 leaf) = %.3f ~ 0.25" p1)
    true
    (abs_float (p1 -. 0.25) < 0.06)

let test_virtual_sampling_survives_blocking () =
  let tree = Core.Split_merge.create () in
  for bits = 0 to 7 do
    Core.Split_merge.add_leaf tree { Core.Split_merge.bits; dim = 3 } ()
  done;
  (* split one leaf so the tree is genuinely variable-dimension *)
  Core.Split_merge.split tree { Core.Split_merge.bits = 0; dim = 3 }
    (fun () -> ((), ()));
  let proto = Virtual_sampling.protocol ~c:2.0 ~tree () in
  let k = Core.Split_merge.leaf_count tree in
  let n = 360 in
  let s = rng () in
  let gs =
    Core.Group_sim.create ~rng:(Prng.Stream.split s) ~n
      ~group_of:(uniform_groups ~n ~supernodes:k)
      proto
  in
  Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
      let b = Array.make n false in
      Array.iter
        (fun v -> b.(v) <- true)
        (Prng.Stream.sample_distinct s n ~k:(n / 4));
      b);
  Alcotest.(check (list int)) "no losses under 25% blocking" []
    (Core.Group_sim.lost_groups gs)

let qcheck_group_sim_deterministic =
  QCheck.Test.make ~name:"group simulation is deterministic given the seed"
    ~count:10 QCheck.int64 (fun seed ->
      let cube = Topology.Hypercube.create 3 in
      let run () =
        let gs =
          Core.Group_sim.create
            ~rng:(Prng.Stream.of_seed seed)
            ~n:64
            ~group_of:(uniform_groups ~n:64 ~supernodes:8)
            (Core.Supernode_sampling.protocol ~c:1.0 ~cube ())
        in
        Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
            Array.make 64 false);
        List.init 8 (fun x ->
            match Core.Group_sim.state_of gs x with
            | None -> [||]
            | Some st -> Core.Supernode_sampling.samples st)
      in
      run () = run ())

let () =
  Alcotest.run "core-groupsim"
    [
      ( "engine",
        [
          Alcotest.test_case "counting protocol" `Quick test_counting_no_blocking;
          Alcotest.test_case "rounds accounting" `Quick test_rounds_accounting;
          Alcotest.test_case "blocked member resyncs" `Quick
            test_blocked_member_resyncs;
          Alcotest.test_case "whole group blocked loses state" `Quick
            test_whole_group_blocked_loses_state;
          Alcotest.test_case "lost set matches canonical model" `Slow
            test_lost_matches_canonical_model;
          Alcotest.test_case "metrics charged" `Quick test_metrics_charged;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "dropped not charged" `Quick
            test_metrics_not_charged_when_dropped;
          Alcotest.test_case "delivery-round block not charged" `Quick
            test_metrics_not_charged_on_delivery_block;
          Alcotest.test_case "each wire priced once" `Quick test_wire_priced_once;
          Alcotest.test_case "late wires are ignored" `Quick
            test_late_wires_ignored;
        ] );
      ( "sampling-protocol",
        [
          Alcotest.test_case "uniform" `Slow test_sampling_protocol_uniform;
          Alcotest.test_case "survives 25% blocking" `Slow
            test_sampling_protocol_under_blocking;
          Alcotest.test_case "round count matches direct" `Quick
            test_sampling_matches_direct_round_count;
          Alcotest.test_case "d = 1 keeps Phase-1 draws" `Quick
            test_sampling_protocol_dimension_one;
        ] );
      ( "virtual-sampling",
        [
          Alcotest.test_case "weighted distribution at message level" `Slow
            test_virtual_sampling_weighted_distribution;
          Alcotest.test_case "survives blocking" `Slow
            test_virtual_sampling_survives_blocking;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_group_sim_deterministic ]
      );
    ]

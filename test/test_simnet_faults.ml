(* Tests for the deterministic fault-injection layer (Simnet.Faults), its
   engine integration, and the Simnet.Invariants checks.

   The load-bearing properties: same seed + same plan reproduce a traced
   run byte for byte; a plan that can never fire leaves every metric
   identical to a fault-free engine; every loss is accounted in
   Faults.losses, and an engine message and a driver leg consume the
   fault stream identically; invariant violations are typed, never
   silent. *)

let msg_bits (_ : string) = 16

(* A small deterministic workload: [rounds] rounds on [n] nodes, every node
   sending to its next three neighbours each round, with a rotating blocked
   set thrown in so faults compose with the Section 1.1 rule. *)
let run_workload ?faults ?(trace = Simnet.Trace.null) ~n ~rounds () =
  let eng = Simnet.Engine.create ~trace ?faults ~n () in
  let metrics = Simnet.Metrics.create ~n in
  let received = ref 0 in
  for r = 0 to rounds - 1 do
    Simnet.Engine.set_blocked eng (fun v -> (r + v) mod 5 = 0);
    Testutil.step ~meter:(metrics, msg_bits) eng (fun ~round:_ ~me ~inbox ->
        received := !received + List.length inbox;
        for k = 1 to 3 do
          Simnet.Engine.send eng ~src:me ~dst:((me + k) mod n) "m"
        done)
  done;
  (eng, !received, metrics)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ---------- determinism ---------- *)

let chaos_plan =
  Simnet.Faults.make ~drop:0.1 ~duplicate:0.05 ~delay_p:0.2 ~delay_max:2
    ~reorder:0.3 ~crash:2 ~crash_round:3 ~recover_after:4 ()

let traced_run_bytes plan =
  let path = Filename.temp_file "faults_trace" ".jsonl" in
  let trace = Simnet.Trace.open_file path in
  let eng, received, _ = run_workload ~faults:plan ~trace ~n:8 ~rounds:12 () in
  Simnet.Trace.close trace;
  let bytes = read_file path in
  Sys.remove path;
  (bytes, received, Simnet.Engine.losses eng)

let test_same_seed_same_trace_bytes () =
  let b1, r1, l1 = traced_run_bytes chaos_plan in
  let b2, r2, l2 = traced_run_bytes chaos_plan in
  Alcotest.(check string) "identical JSONL bytes" b1 b2;
  Alcotest.(check int) "identical deliveries" r1 r2;
  Alcotest.(check bool) "identical losses" true (l1 = l2);
  (* the run actually exercised the fault paths *)
  Alcotest.(check bool) "some faults fired" true
    (l1.Simnet.Faults.dropped > 0 && String.length b1 > 0)

let test_different_fault_seed_differs () =
  let other = { chaos_plan with Simnet.Faults.seed = 99L } in
  let b1, _, _ = traced_run_bytes chaos_plan in
  let b2, _, _ = traced_run_bytes other in
  Alcotest.(check bool) "different fault seed, different trace" false (b1 = b2)

(* ---------- inert plans cost nothing ---------- *)

let test_none_plan_metrics_identical () =
  let _, r_plain, m0 = run_workload ~n:10 ~rounds:8 () in
  let eng_none, r_none, m_none =
    run_workload ~faults:(Simnet.Faults.make ()) ~n:10 ~rounds:8 ()
  in
  (* delay_p > 0 with delay_max = 0 can never fire either *)
  let inert = Simnet.Faults.make ~delay_p:0.5 ~delay_max:0 () in
  Alcotest.(check bool) "inert plan is none" true (Simnet.Faults.features inert = []);
  let eng_inert, r_inert, m_inert = run_workload ~faults:inert ~n:10 ~rounds:8 () in
  Alcotest.(check int) "none: same deliveries" r_plain r_none;
  Alcotest.(check int) "inert: same deliveries" r_plain r_inert;
  Alcotest.(check bool) "no plan installed" true
    (Option.is_none (Simnet.Engine.fault_plan eng_none));
  List.iter
    (fun (eng, m) ->
      Alcotest.(check int) "total msgs" (Simnet.Metrics.total_msgs m0)
        (Simnet.Metrics.total_msgs m);
      Alcotest.(check int) "total bits" (Simnet.Metrics.total_bits m0)
        (Simnet.Metrics.total_bits m);
      Alcotest.(check int) "max node bits"
        (Simnet.Metrics.max_node_bits_ever m0)
        (Simnet.Metrics.max_node_bits_ever m);
      let l = Simnet.Engine.losses eng in
      Alcotest.(check bool) "no losses" true
        (l.Simnet.Faults.dropped = 0 && l.Simnet.Faults.duplicated = 0
        && l.Simnet.Faults.delayed = 0
        && l.Simnet.Faults.crash_lost = 0))
    [ (eng_none, m_none); (eng_inert, m_inert) ]

(* ---------- per-fault accounting ---------- *)

let count_point_to_point ~faults ~sends =
  (* node 0 sends [sends] messages to node 1, one per round, no blocking *)
  let eng = Simnet.Engine.create ?faults ~n:2 () in
  let received = ref 0 in
  for _ = 1 to sends + 5 do
    Testutil.step eng (fun ~round ~me ~inbox ->
        if me = 1 then received := !received + List.length inbox
        else if round < sends then Simnet.Engine.send eng ~src:0 ~dst:1 "m")
  done;
  (!received, Simnet.Engine.losses eng)

let test_drop_conserves_messages () =
  let plan = Simnet.Faults.make ~drop:0.3 () in
  let received, l = count_point_to_point ~faults:(Some plan) ~sends:200 in
  Alcotest.(check bool) "some drops" true (l.Simnet.Faults.dropped > 0);
  Alcotest.(check int) "delivered + dropped = sent" 200
    (received + l.Simnet.Faults.dropped)

let test_duplicate_every_message () =
  let plan = Simnet.Faults.make ~duplicate:1.0 () in
  let received, l = count_point_to_point ~faults:(Some plan) ~sends:50 in
  Alcotest.(check int) "every message doubled" 100 received;
  Alcotest.(check int) "duplicates counted" 50 l.Simnet.Faults.duplicated

let test_delay_shifts_arrival () =
  (* delay_p = 1, delay_max = 1: every message is held exactly one round. *)
  let plan = Simnet.Faults.make ~delay_p:1.0 ~delay_max:1 () in
  let eng = Simnet.Engine.create ~faults:plan ~n:2 () in
  let arrivals = ref [] in
  for _ = 0 to 4 do
    Testutil.step eng (fun ~round ~me ~inbox ->
        if me = 1 && inbox <> [] then arrivals := round :: !arrivals;
        if me = 0 && round = 0 then Simnet.Engine.send eng ~src:0 ~dst:1 "m")
  done;
  (* undelayed arrival round would be 1; the hold pushes it to 2 *)
  Alcotest.(check (list int)) "arrives one round late" [ 2 ] !arrivals;
  Alcotest.(check int) "counted as delayed" 1
    (Simnet.Engine.losses eng).Simnet.Faults.delayed

let test_crash_stop_and_accounting () =
  let plan = Simnet.Faults.make ~crash:1 ~crash_round:1 () in
  let n = 4 in
  let eng = Simnet.Engine.create ~faults:plan ~n () in
  let computed_while_crashed = ref 0 in
  for _ = 0 to 5 do
    Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
        if Simnet.Engine.is_crashed eng me then incr computed_while_crashed;
        for dst = 0 to n - 1 do
          if dst <> me then Simnet.Engine.send eng ~src:me ~dst "m"
        done)
  done;
  let crashed = List.filter (Simnet.Engine.is_crashed eng) [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "exactly one node crashed" 1 (List.length crashed);
  Alcotest.(check int) "crashed node never computes" 0 !computed_while_crashed;
  Alcotest.(check bool) "losses counted" true
    ((Simnet.Engine.losses eng).Simnet.Faults.crash_lost > 0)

let test_crash_recover () =
  let plan = Simnet.Faults.make ~crash:1 ~crash_round:1 ~recover_after:2 () in
  let eng = Simnet.Engine.create ~faults:plan ~n:3 () in
  let crashed_rounds = ref [] in
  for r = 0 to 6 do
    Testutil.step eng (fun ~round:_ ~me:_ ~inbox:_ -> ());
    for v = 0 to 2 do
      if Simnet.Engine.is_crashed eng v then crashed_rounds := r :: !crashed_rounds
    done
  done;
  (* crash at round 1, recover after 2 rounds: down in rounds 1 and 2 only *)
  Alcotest.(check (list int)) "down exactly two rounds" [ 2; 1 ]
    !crashed_rounds

(* ---------- spec parsing ---------- *)

let test_parse_spec () =
  match Simnet.Faults.parse_spec "drop=0.05,dup=0.01,delay=2,crash=3" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check (float 1e-9)) "drop" 0.05 p.Simnet.Faults.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.01 p.Simnet.Faults.duplicate;
      Alcotest.(check int) "delay_max" 2 p.Simnet.Faults.delay_max;
      Alcotest.(check bool) "delay_p defaulted on" true
        (p.Simnet.Faults.delay_p > 0.0);
      Alcotest.(check int) "crash" 3 p.Simnet.Faults.crash;
      (* to_spec round-trips *)
      (match Simnet.Faults.parse_spec (Simnet.Faults.to_spec p) with
      | Ok p' -> Alcotest.(check bool) "round trip" true (p = p')
      | Error e -> Alcotest.failf "round trip failed: %s" e)

let test_parse_spec_rejects () =
  List.iter
    (fun spec ->
      match Simnet.Faults.parse_spec spec with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
      | Error _ -> ())
    [ "drop=1.5"; "nope=1"; "drop"; "crash=-1"; "" ]

(* ---------- invariants ---------- *)

let test_invariants_accept_cycle () =
  (* 0 -> 2 -> 1 -> 0 is a single Hamilton cycle on 3 nodes *)
  match Simnet.Invariants.check_cycle [| 2; 0; 1 |] with
  | Ok () -> ()
  | Error v -> Alcotest.failf "rejected: %s" (Simnet.Invariants.describe v)

let test_invariants_reject_broken () =
  let expect_error name succ =
    match Simnet.Invariants.check_cycle succ with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  expect_error "out of range" [| 1; 5; 0 |];
  expect_error "not injective" [| 1; 1; 0 |];
  (* two 2-cycles instead of one 4-cycle *)
  expect_error "two cycles" [| 1; 0; 3; 2 |]

let test_invariants_connectivity () =
  let path_neighbors n v =
    Array.of_list
      (List.filter (fun u -> u >= 0 && u < n) [ v - 1; v + 1 ])
  in
  (match Simnet.Invariants.check_connected ~n:5 ~neighbors:(path_neighbors 5) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "path rejected: %s" (Simnet.Invariants.describe v));
  let split v = if v = 2 then [||] else path_neighbors 5 v in
  (match Simnet.Invariants.check_connected ~n:5 ~neighbors:split with
  | Ok () -> Alcotest.fail "disconnected graph accepted"
  | Error _ -> ());
  Alcotest.(check int) "reachable counts the component" 3
    (Simnet.Invariants.reachable ~n:6 ~start:0 ~neighbors:(path_neighbors 3))

(* ---------- properties ---------- *)

let qcheck_drop_conservation =
  QCheck.Test.make ~name:"drop plan: delivered + dropped = sent" ~count:50
    QCheck.(pair int64 (int_range 2 12))
    (fun (seed, n) ->
      let plan = Simnet.Faults.make ~drop:0.25 ~seed () in
      let eng = Simnet.Engine.create ~faults:plan ~n () in
      let sent = ref 0 and received = ref 0 in
      for r = 0 to 9 do
        Testutil.step eng (fun ~round:_ ~me ~inbox ->
            received := !received + List.length inbox;
            if r < 9 then begin
              incr sent;
              Simnet.Engine.send eng ~src:me ~dst:((me + 1) mod n) "m"
            end)
      done;
      (* drain the last in-flight round *)
      Testutil.step eng (fun ~round:_ ~me:_ ~inbox ->
          received := !received + List.length inbox);
      let l = Simnet.Engine.losses eng in
      !received + l.Simnet.Faults.dropped = !sent)

(* The kinds of the fault events a run emits, in order. *)
let fault_kinds () =
  let kinds = ref [] in
  let trace =
    Simnet.Trace.make
      ~emit:(function
        | Simnet.Trace.Fault { kind; _ } -> kinds := kind :: !kinds
        | _ -> ())
      ~close:ignore
  in
  (trace, fun () -> List.rev !kinds)

let qcheck_engine_matches_leg =
  QCheck.Test.make ~name:"engine messages and legs roll alike" ~count:100
    QCheck.(
      pair
        (quad (float_bound_inclusive 0.5) (float_bound_inclusive 0.5)
           (float_bound_inclusive 1.0) (int_bound 4))
        (pair int64 (int_range 1 500)))
    (fun ((drop, duplicate, delay_p, delay_max), (seed, k)) ->
      let plan =
        Simnet.Faults.make ~drop ~duplicate ~delay_p ~delay_max ~seed ()
      in
      (* k single messages 0 -> 1, one per round; the extra round delivers
         the last.  Held messages mature next to fresh ones, so inboxes of
         two or more meet the (zero-rate) reorder roll. *)
      let trace, engine_kinds = fault_kinds () in
      let eng = Simnet.Engine.create ~trace ~faults:plan ~n:2 () in
      for _ = 0 to k do
        Testutil.step eng (fun ~round ~me ~inbox:_ ->
            if me = 0 && round < k then Simnet.Engine.send eng ~src:0 ~dst:1 "m")
      done;
      let trace, leg_kinds = fault_kinds () in
      let rt = Simnet.Runtime.create ~trace ~faults:plan ~n:2 () in
      for _ = 1 to k do
        ignore (Simnet.Runtime.leg rt ~src:0 ~dst:1 ())
      done;
      Simnet.Engine.losses eng = Simnet.Runtime.losses rt
      && engine_kinds () = leg_kinds ())

let () =
  Alcotest.run "simnet-faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace bytes" `Quick
            test_same_seed_same_trace_bytes;
          Alcotest.test_case "fault seed changes the run" `Quick
            test_different_fault_seed_differs;
        ] );
      ( "inert",
        [
          Alcotest.test_case "none plan leaves metrics identical" `Quick
            test_none_plan_metrics_identical;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "drop conserves messages" `Quick
            test_drop_conserves_messages;
          Alcotest.test_case "duplicate doubles" `Quick
            test_duplicate_every_message;
          Alcotest.test_case "delay shifts arrival" `Quick
            test_delay_shifts_arrival;
          Alcotest.test_case "crash-stop" `Quick test_crash_stop_and_accounting;
          Alcotest.test_case "crash-recover" `Quick test_crash_recover;
        ] );
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_parse_spec;
          Alcotest.test_case "reject" `Quick test_parse_spec_rejects;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "accepts a cycle" `Quick
            test_invariants_accept_cycle;
          Alcotest.test_case "rejects broken successors" `Quick
            test_invariants_reject_broken;
          Alcotest.test_case "connectivity" `Quick
            test_invariants_connectivity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_drop_conservation; qcheck_engine_matches_leg ] );
    ]

(* Tests for the driver-level runtime (Simnet.Runtime) and the run spec
   (Simnet.Scenario).

   The load-bearing properties: a plan field the driver does not support
   is rejected loudly at creation; leg rolls follow the engine's
   drop -> delay -> duplicate precedence and charge every loss;
   fault streams are size-independently keyed, so growing the network
   never shifts them; run_epoch accounts rounds exactly once whether or
   not the driver advanced them itself; Scenario.of_args/parse are the
   single, strict parsing point for run specs. *)

let plan_of_spec s =
  match Simnet.Faults.parse_spec s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan spec %S: %s" s e

(* ---------- feature gating ---------- *)

let test_unsupported_feature_rejected () =
  let faults = plan_of_spec "drop=0.5,crash=2" in
  let expected =
    "Test_driver: fault plan field `crash' is not supported by this driver"
  in
  Alcotest.check_raises "crash rejected" (Invalid_argument expected) (fun () ->
      ignore
        (Simnet.Runtime.create ~faults ~supports:[ `Drop ] ~who:"Test_driver"
           ~n:8 ()))

let test_supported_plan_installs () =
  let faults = plan_of_spec "drop=0.5,crash=2" in
  let rt =
    Simnet.Runtime.create ~faults ~supports:[ `Drop; `Crash ] ~n:8 ()
  in
  Alcotest.(check bool) "faulty" true (Simnet.Runtime.faulty rt);
  Alcotest.(check bool)
    "plan kept" true
    (Option.is_some (Simnet.Runtime.plan rt))

let test_inert_plan_not_installed () =
  let rt =
    Simnet.Runtime.create ~faults:(Simnet.Faults.make ()) ~supports:[] ~n:8 ()
  in
  Alcotest.(check bool) "not faulty" false (Simnet.Runtime.faulty rt);
  Alcotest.(check bool) "legs arrive" true (Simnet.Runtime.leg rt ())

(* ---------- leg rolls and loss accounting ---------- *)

let test_leg_losses_accounted () =
  let faults = plan_of_spec "drop=0.3,dup=0.2,delayp=0.2,delay=3" in
  let rt = Simnet.Runtime.create ~faults ~n:8 () in
  let legs = 10_000 in
  let arrived = ref 0 in
  for _ = 1 to legs do
    if Simnet.Runtime.leg rt () then incr arrived
  done;
  let l = Simnet.Runtime.losses rt in
  Alcotest.(check int)
    "arrived + dropped + delayed = legs" legs
    (!arrived + l.Simnet.Runtime.dropped + l.Simnet.Runtime.delayed);
  Alcotest.(check bool) "some dropped" true (l.Simnet.Runtime.dropped > 0);
  Alcotest.(check bool) "some delayed" true (l.Simnet.Runtime.delayed > 0);
  (* Duplicated legs still arrive: the counter ticks without killing. *)
  Alcotest.(check bool)
    "some duplicated" true
    (l.Simnet.Runtime.duplicated > 0);
  Alcotest.(check bool)
    "duplicates arrived" true
    (!arrived >= l.Simnet.Runtime.duplicated)

let test_leg_deterministic () =
  let run () =
    let faults = plan_of_spec "drop=0.3,dup=0.1,seed=9" in
    let rt = Simnet.Runtime.create ~faults ~n:8 () in
    List.init 200 (fun _ -> Simnet.Runtime.leg rt ())
  in
  Alcotest.(check (list bool)) "same seed, same legs" (run ()) (run ())

let test_crashed_endpoint_loses_leg () =
  (* crash=8 on n=8: victim i crashes at round i, so by round 7 everyone
     is down. *)
  let faults = plan_of_spec "crash=8,crashround=0" in
  let rt = Simnet.Runtime.create ~faults ~n:8 () in
  for _ = 0 to 7 do
    Simnet.Runtime.tick rt;
    Simnet.Runtime.advance rt ~rounds:1
  done;
  Alcotest.(check bool) "node crashed" true (Simnet.Runtime.crashed rt 0);
  Alcotest.(check bool) "leg lost" false (Simnet.Runtime.leg rt ~src:0 ());
  let l = Simnet.Runtime.losses rt in
  Alcotest.(check int) "charged crash_lost" 1 l.Simnet.Runtime.crash_lost;
  (* An endpoint-free leg consults nobody and (with no link faults in the
     plan) survives. *)
  Alcotest.(check bool) "anonymous leg arrives" true (Simnet.Runtime.leg rt ())

let test_link_drop_shape () =
  let rt0 = Simnet.Runtime.create ~faults:(plan_of_spec "crash=2") ~n:8 () in
  Alcotest.(check bool)
    "crash-only plan: no link hook" true
    (Simnet.Runtime.link_drop rt0 = None);
  let rt1 = Simnet.Runtime.create ~faults:(plan_of_spec "drop=1.0") ~n:8 () in
  match Simnet.Runtime.link_drop rt1 with
  | None -> Alcotest.fail "drop plan must expose a link hook"
  | Some f -> Alcotest.(check bool) "p=1 always drops" true (f ())

(* Minor-heap words per call of [f], over 10^5 calls. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 1e5

let test_leg_allocation () =
  (* The workload driver's hot path: about two untraced legs per request
     under a drop-only plan.  Endpoints only feed trace fields, so an
     untraced leg must not pay for them. *)
  let rt = Simnet.Runtime.create ~faults:(plan_of_spec "drop=0.05") ~n:8 () in
  let bare = words_per_call (fun () -> ignore (Simnet.Runtime.leg rt ())) in
  let ends =
    words_per_call (fun () -> ignore (Simnet.Runtime.leg rt ~src:3 ~dst:5 ()))
  in
  Alcotest.(check bool) (Printf.sprintf "leg: %.2f words/call" bare) true
    (bare <= 2.0);
  Alcotest.(check (float 1e-9)) "endpoints cost nothing untraced" bare ends

(* ---------- size-independent keying ---------- *)

let test_resize_does_not_shift_stream () =
  (* The same plan on the same seed must produce the same leg outcomes
     whether or not the network grew mid-run. *)
  let outcomes resize_midway =
    let faults = plan_of_spec "drop=0.4,seed=5" in
    let rt = Simnet.Runtime.create ~faults ~n:8 () in
    let first = List.init 50 (fun _ -> Simnet.Runtime.leg rt ()) in
    if resize_midway then Simnet.Runtime.resize rt ~n:64;
    let second = List.init 50 (fun _ -> Simnet.Runtime.leg rt ()) in
    (first, second)
  in
  Alcotest.(check (pair (list bool) (list bool)))
    "growth never aliases the stream" (outcomes false) (outcomes true)

let test_crashed_bounds_guarded () =
  let faults = plan_of_spec "crash=4" in
  let rt = Simnet.Runtime.create ~faults ~n:8 () in
  (* Victim i crashes at round 1 + i; jump past all four schedules. *)
  Simnet.Runtime.advance rt ~rounds:5;
  Simnet.Runtime.tick rt;
  (* Joins past the install-time n are never crash victims, even before a
     resize widens the table. *)
  Alcotest.(check bool) "beyond n" false (Simnet.Runtime.crashed rt 100);
  Simnet.Runtime.resize rt ~n:128;
  Alcotest.(check bool)
    "still not crashed after grow" false
    (Simnet.Runtime.crashed rt 100);
  let crashed_now =
    List.length
      (List.filter (Simnet.Runtime.crashed rt) (List.init 128 Fun.id))
  in
  Alcotest.(check int) "victims preserved across resize" 4 crashed_now

(* The domain count a driver asked for is what it reads back: Dos_network
   hands it on to Group_sim. *)
(* ---------- epochs and rounds ---------- *)

let test_run_epoch_accounts_rounds () =
  let rt = Simnet.Runtime.create ~n:8 () in
  (* Driver that does not advance: run_epoch advances for it. *)
  let ep = Simnet.Runtime.run_epoch rt (fun _ -> ((), 7)) in
  Alcotest.(check int) "epoch index" 0 ep.Simnet.Runtime.index;
  Alcotest.(check int) "rounds reported" 7 ep.Simnet.Runtime.rounds;
  Alcotest.(check int) "round counter" 7 (Simnet.Runtime.round rt);
  (* Driver that advances per round: not double counted. *)
  let ep2 =
    Simnet.Runtime.run_epoch rt (fun rt ->
        for _ = 1 to 5 do
          Simnet.Runtime.advance rt ~rounds:1
        done;
        ((), 5))
  in
  Alcotest.(check int) "second epoch index" 1 ep2.Simnet.Runtime.index;
  Alcotest.(check int) "no double advance" 12 (Simnet.Runtime.round rt);
  Alcotest.(check int) "epoch count" 2 (Simnet.Runtime.epoch rt)

let test_epoch_losses_are_deltas () =
  let faults = plan_of_spec "drop=1.0" in
  let rt = Simnet.Runtime.create ~faults ~n:8 () in
  let epoch_of k =
    Simnet.Runtime.run_epoch rt (fun rt ->
        for _ = 1 to k do
          ignore (Simnet.Runtime.leg rt ())
        done;
        ((), 1))
  in
  let e1 = epoch_of 3 and e2 = epoch_of 5 in
  Alcotest.(check int)
    "first epoch dropped" 3
    e1.Simnet.Runtime.epoch_losses.Simnet.Runtime.dropped;
  Alcotest.(check int)
    "second epoch dropped" 5
    e2.Simnet.Runtime.epoch_losses.Simnet.Runtime.dropped;
  Alcotest.(check int)
    "running total" 8
    (Simnet.Runtime.losses rt).Simnet.Runtime.dropped

(* ---------- scenario parsing ---------- *)

let scenario_ok spec =
  match Simnet.Scenario.parse spec with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "scenario %S rejected: %s" spec e

let test_scenario_parse () =
  let sc = scenario_ok "n=4096;seed=7;faults=drop=0.05,crash=2;retry=3" in
  Alcotest.(check int) "n" 4096 sc.Simnet.Scenario.n;
  Alcotest.(check int) "seed" 7 sc.Simnet.Scenario.seed;
  Alcotest.(check int) "retry" 3 sc.Simnet.Scenario.retry;
  (match sc.Simnet.Scenario.faults with
  | None -> Alcotest.fail "faults sub-spec lost"
  | Some p ->
      Alcotest.(check (float 1e-9)) "drop" 0.05 p.Simnet.Faults.drop;
      Alcotest.(check int) "crash" 2 p.Simnet.Faults.crash);
  Alcotest.(check bool)
    "fault model active" true
    (Simnet.Scenario.fault_model_active sc);
  Alcotest.(check bool)
    "default inactive" false
    (Simnet.Scenario.fault_model_active Simnet.Scenario.default)

let test_scenario_roundtrip () =
  let sc = scenario_ok "n=512;d=4;frac=0.25;trace=/tmp/x.jsonl" in
  let sc' = scenario_ok (Simnet.Scenario.to_spec sc) in
  Alcotest.(check bool) "to_spec round-trips" true (sc = sc')

let test_scenario_rejects () =
  let rejects spec needle =
    match Simnet.Scenario.parse spec with
    | Ok _ -> Alcotest.failf "scenario %S accepted" spec
    | Error e ->
        let found =
          let nl = String.length needle and el = String.length e in
          let rec scan i =
            i + nl <= el && (String.sub e i nl = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %S (got %S)" spec needle e)
          true found
  in
  rejects "bogus=1" "bogus";
  rejects "n=0" "n";
  rejects "retry=-1" "retry";
  rejects "frac=1.5" "frac";
  rejects "n" "KEY=VALUE";
  rejects "faults=drop=nope" "faults"

let () =
  Alcotest.run "simnet-runtime"
    [
      ( "features",
        [
          Alcotest.test_case "unsupported rejected" `Quick
            test_unsupported_feature_rejected;
          Alcotest.test_case "supported installs" `Quick
            test_supported_plan_installs;
          Alcotest.test_case "inert plan skipped" `Quick
            test_inert_plan_not_installed;
        ] );
      ( "legs",
        [
          Alcotest.test_case "losses accounted" `Quick
            test_leg_losses_accounted;
          Alcotest.test_case "deterministic" `Quick test_leg_deterministic;
          Alcotest.test_case "crashed endpoint" `Quick
            test_crashed_endpoint_loses_leg;
          Alcotest.test_case "link_drop shape" `Quick test_link_drop_shape;
          Alcotest.test_case "allocation" `Quick test_leg_allocation;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "resize keeps stream" `Quick
            test_resize_does_not_shift_stream;
          Alcotest.test_case "crashed bounds-guarded" `Quick
            test_crashed_bounds_guarded;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "rounds accounted once" `Quick
            test_run_epoch_accounts_rounds;
          Alcotest.test_case "losses are deltas" `Quick
            test_epoch_losses_are_deltas;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "parse" `Quick test_scenario_parse;
          Alcotest.test_case "round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "reject" `Quick test_scenario_rejects;
        ] );
    ]

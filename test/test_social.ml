(* Reddit-style social application: streamed request generation against
   its whole-run oracle, session gating, per-class accounting, and the
   reconfiguration-vs-static claim on the social workload. *)

let seed = 11L

let app ?session () =
  Apps.Social.config ~users:32 ~topics:8 ~rounds:32 ~rate:0.3 ~fanout:2
    ?session ()

(* ---------- request generation ---------- *)

let streamed (cfg : Apps.Social.config) =
  let offline = Apps.Social.offline cfg ~seed in
  Testutil.admitted ~rounds:cfg.rounds (Apps.Social.arrivals cfg ~seed ~offline)

(* The oracle: the whole run's schedule built at once — each user's
   requests from its own keyed stream, concatenated and stable-sorted by
   arrival round.  Stream keying and draw order are restated here rather
   than shared, so the oracle is independent of the code under test. *)
let reference_social_schedule (cfg : Apps.Social.config) ~seed ~offline =
  let user_stream user =
    Prng.Stream.of_seed
      (Prng.Splitmix64.mix
         (Int64.add (Prng.Splitmix64.mix seed) (Int64.of_int (2 * (user + 1)))))
  in
  let topic s = Testutil.reference_zipf s ~n:cfg.topics ~s:cfg.zipf - 1 in
  let draw_class s =
    let r = Prng.Stream.float s 1.0 and m = cfg.mix in
    if r < m.feed then Apps.Social.Feed
    else if r < m.feed +. m.post then Post
    else if r < m.feed +. m.post +. m.comment then Comment
    else if r < m.feed +. m.post +. m.comment +. m.vote then Vote
    else Dm
  in
  let draw_ops s : Apps.Social.cls -> Apps.Social.op list = function
    | Feed -> [ Probe (Apps.Social.content_topic cfg (topic s)) ]
    | Post ->
        let t = topic s in
        let followers =
          List.init cfg.fanout (fun _ -> Prng.Stream.int s cfg.users)
        in
        Publish (Apps.Social.content_topic cfg t)
        :: List.map
             (fun u -> Apps.Social.Publish (Apps.Social.feed_topic cfg u))
             followers
    | Comment -> [ Publish (Apps.Social.comment_topic cfg (topic s)) ]
    | Vote -> [ Store (Apps.Social.vote_key cfg (topic s)) ]
    | Dm -> [ Publish (Apps.Social.dm_topic cfg (Prng.Stream.int s cfg.users)) ]
  in
  let epoch_len =
    match cfg.session with Some (_, e) -> e | None -> cfg.rounds
  in
  let user_schedule user =
    let s = user_stream user in
    let out = ref [] and seq = ref 0 in
    for arrival = 0 to cfg.rounds - 1 do
      let away =
        Array.length offline > 0 && offline.(arrival / epoch_len).(user)
      in
      if not away then begin
        let burst = Prng.Dist.poisson s cfg.rate in
        for _ = 1 to burst do
          let cls = draw_class s in
          let ops = draw_ops s cls in
          out := { Apps.Social.user; seq = !seq; arrival; cls; ops } :: !out;
          incr seq
        done
      end
    done;
    Array.of_list (List.rev !out)
  in
  let all = Array.concat (List.init cfg.users user_schedule) in
  Array.stable_sort
    (fun (a : Apps.Social.request) b -> compare a.arrival b.arrival)
    all;
  all

let test_schedule_shape () =
  let cfg =
    Apps.Social.config ~users:16 ~topics:4 ~rounds:24 ~rate:0.5 ~fanout:3 ()
  in
  let s = streamed cfg in
  Alcotest.(check bool) "non-empty" true (Array.length s > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        "arrival in range" true
        (r.Apps.Social.arrival >= 0 && r.Apps.Social.arrival < 24);
      if i > 0 then
        Alcotest.(check bool) "sorted by arrival" true
          (s.(i - 1).Apps.Social.arrival <= r.Apps.Social.arrival);
      match (r.Apps.Social.cls, r.Apps.Social.ops) with
      | Apps.Social.Post, Apps.Social.Publish _ :: rest ->
          (* the repost fan-out rides in the same chain *)
          Alcotest.(check int) "fanout publishes" 3 (List.length rest)
      | Apps.Social.Post, _ -> Alcotest.fail "post without a publish chain"
      | (Apps.Social.Feed | Apps.Social.Comment | Apps.Social.Vote
        | Apps.Social.Dm), ops ->
          Alcotest.(check int) "single-op class" 1 (List.length ops))
    s

let test_session_gates_offline_users () =
  let session = (0.5, 8) in
  let cfg =
    Apps.Social.config ~users:32 ~topics:8 ~rounds:32 ~rate:0.5 ~session ()
  in
  let offline = Apps.Social.offline cfg ~seed in
  Alcotest.(check int) "epoch count" 4 (Array.length offline);
  Array.iter
    (fun set ->
      let off = Array.fold_left (fun a o -> if o then a + 1 else a) 0 set in
      Alcotest.(check int) "half the users offline" 16 off)
    offline;
  Array.iter
    (fun r ->
      let e = r.Apps.Social.arrival / 8 in
      Alcotest.(check bool)
        "offline users issue nothing" false
        offline.(e).(r.Apps.Social.user))
    (streamed cfg)

(* Streamed arrivals over every round equal the whole-run reference.  The
   generator then runs [extra] rounds past the end, which read each online
   user's next draws: a stream left at the wrong position shows there. *)
let extra = 4

let gen_app =
  QCheck.Gen.(
    map
      (fun ((users, rounds, rate), (topics, fanout, zipf), (mix, session)) ->
        Apps.Social.config ~users ~topics ~rounds ~rate ~fanout ~zipf ~mix
          ?session ())
      (triple
         (triple (int_range 1 40) (int_range 1 30)
            (oneofl [ 0.05; 0.3; 1.0; 2.5 ]))
         (triple (int_range 1 20) (int_range 0 3) (oneofl [ 0.6; 1.1; 2.0 ]))
         (pair
            (map
               (fun ws ->
                 match ws with
                 | [ feed; post; comment; vote; dm ] ->
                     if feed +. post +. comment +. vote +. dm = 0.0 then
                       Apps.Social.default_mix
                     else { Apps.Social.feed; post; comment; vote; dm }
                 | _ -> Apps.Social.default_mix)
               (list_repeat 5 (oneofl [ 0.0; 0.1; 0.5; 1.0 ])))
            (opt
               (pair (oneofl [ 0.3; 0.5; 0.85; 1.0 ]) (int_range 1 12))))))

let qcheck_streamed_matches_reference =
  QCheck.Test.make ~name:"streamed arrivals equal the whole-run reference"
    ~count:100
    (QCheck.make
       ~print:(fun (seed, (cfg : Apps.Social.config)) ->
         Printf.sprintf
           "seed=%Ld users=%d rounds=%d rate=%g topics=%d fanout=%d session=%s"
           seed cfg.users cfg.rounds cfg.rate cfg.topics cfg.fanout
           (match cfg.session with
           | None -> "-"
           | Some (online, epoch) -> Printf.sprintf "%g:%d" online epoch))
       QCheck.Gen.(pair ui64 gen_app))
    (fun (seed, cfg) ->
      let longer = { cfg with rounds = cfg.rounds + extra } in
      let offline = Apps.Social.offline longer ~seed in
      let got =
        Testutil.admitted ~rounds:longer.rounds
          (Apps.Social.arrivals cfg ~seed ~offline)
      in
      let in_run =
        List.filter
          (fun (r : Apps.Social.request) -> r.arrival < cfg.rounds)
          (Array.to_list got)
      in
      Array.of_list in_run
      = reference_social_schedule cfg ~seed
          ~offline:(Apps.Social.offline cfg ~seed)
      && got = reference_social_schedule longer ~seed ~offline)

(* ---------- the runner ---------- *)

let run ?(mode = Workload.Driver.Reconfig) ?(attack = Workload.Attack.No_attack)
    ?(frac = 0.2) ?session ?(domains = 1) () =
  let cfg =
    Workload.Social.config ~mode ~period:8 ~attack ~frac ~domains (app ?session ())
  in
  Workload.Social.run ~seed ~n:256 cfg

let test_accounting_invariants () =
  let r = run ~session:(0.85, 8) () in
  Alcotest.(check int) "five classes" 5 (List.length r.Workload.Social.classes);
  List.iter2
    (fun cls (c : Workload.Driver.class_report) ->
      Alcotest.(check string) "class order" (Apps.Social.class_name cls)
        c.Workload.Driver.cls;
      Alcotest.(check int)
        "issued = ok + timeout + failed + pending(0)"
        c.Workload.Driver.issued
        (c.Workload.Driver.ok + c.Workload.Driver.timed_out
       + c.Workload.Driver.failed);
      Alcotest.(check int)
        "histogram holds the served requests" c.Workload.Driver.ok
        (Stats.Log_histogram.total c.Workload.Driver.hist))
    Apps.Social.classes r.Workload.Social.classes;
  let t = r.Workload.Social.total in
  Alcotest.(check int) "total issued"
    (List.fold_left
       (fun a (c : Workload.Driver.class_report) -> a + c.Workload.Driver.issued)
       0 r.Workload.Social.classes)
    t.Workload.Driver.issued

(* The merged overall histogram must not depend on the order the class
   shards are merged in: Log_histogram.merge is an exact cell-wise sum. *)
let test_class_hist_merge_invariance () =
  let r = run ~attack:(Workload.Attack.Group_kill) ~session:(0.85, 8) () in
  let hists =
    List.map
      (fun (c : Workload.Driver.class_report) -> c.Workload.Driver.hist)
      r.Workload.Social.classes
  in
  let merge_all hs =
    List.fold_left
      (fun acc h -> Stats.Log_histogram.merge acc h)
      (Stats.Log_histogram.create ())
      hs
  in
  let fwd = merge_all hists in
  let rev = merge_all (List.rev hists) in
  let rot =
    merge_all (match hists with [] -> [] | h :: rest -> rest @ [ h ])
  in
  Alcotest.(check bool) "forward = reverse" true
    (Stats.Log_histogram.equal fwd rev);
  Alcotest.(check bool) "forward = rotated" true
    (Stats.Log_histogram.equal fwd rot);
  Alcotest.(check bool) "matches the report's total" true
    (Stats.Log_histogram.equal fwd r.Workload.Social.total.Workload.Driver.hist)

let reports_equal (a : Workload.Social.report) (b : Workload.Social.report) =
  List.for_all2
    (fun (x : Workload.Driver.class_report) (y : Workload.Driver.class_report) ->
      x.Workload.Driver.issued = y.Workload.Driver.issued
      && x.Workload.Driver.ok = y.Workload.Driver.ok
      && x.Workload.Driver.slo_miss = y.Workload.Driver.slo_miss
      && x.Workload.Driver.timed_out = y.Workload.Driver.timed_out
      && x.Workload.Driver.failed = y.Workload.Driver.failed
      && x.Workload.Driver.max_hops = y.Workload.Driver.max_hops
      && Stats.Log_histogram.equal x.Workload.Driver.hist y.Workload.Driver.hist)
    a.Workload.Social.classes b.Workload.Social.classes
  && a.Workload.Social.hop_msgs = b.Workload.Social.hop_msgs
  && a.Workload.Social.total_bits = b.Workload.Social.total_bits
  && a.Workload.Social.max_group_load = b.Workload.Social.max_group_load

let test_domains_invariant () =
  let a =
    run ~attack:Workload.Attack.Group_kill ~session:(0.85, 8) ~domains:1 ()
  in
  let b =
    run ~attack:Workload.Attack.Group_kill ~session:(0.85, 8) ~domains:4 ()
  in
  Alcotest.(check bool) "domains 1 = domains 4" true (reports_equal a b)

let test_setup_independent_of_rounds () =
  let words rounds =
    let app = Apps.Social.config ~users:256 ~rounds ~rate:1.0 () in
    Testutil.setup_words (fun trace ->
        Workload.Social.run ~trace ~seed ~n:256
          (Workload.Social.config ~domains:1 app))
  in
  (* a first run fills one-time caches (Zipf weight tables) *)
  ignore (words 64);
  let short = words 64 and long = words 512 in
  Alcotest.(check bool)
    (Printf.sprintf "set-up words %.0f (64 rounds) vs %.0f (512 rounds)" short
       long)
    true
    (Float.abs (long -. short) <= 1000.0)

(* Theorem 8 on the social workload: reconfiguration holds every class's
   SLO under a 20% hot-key group-kill; the static ablation loses classes. *)
let test_reconfig_holds_static_loses () =
  let slo_frac (c : Workload.Driver.class_report) =
    if c.Workload.Driver.issued = 0 then 1.0
    else
      float_of_int (c.Workload.Driver.ok - c.Workload.Driver.slo_miss)
      /. float_of_int c.Workload.Driver.issued
  in
  let classes_ok r =
    List.length
      (List.filter (fun c -> slo_frac c >= 0.9) r.Workload.Social.classes)
  in
  let reconfig =
    run ~mode:Workload.Driver.Reconfig ~attack:Workload.Attack.Group_kill ()
  in
  let static =
    run ~mode:Workload.Driver.Static ~attack:Workload.Attack.Group_kill ()
  in
  Alcotest.(check int) "reconfig holds all five" 5 (classes_ok reconfig);
  Alcotest.(check bool)
    (Printf.sprintf "static loses a class (%d ok)" (classes_ok static))
    true
    (classes_ok static < 5)

(* ---------- config validation and scenario keys ---------- *)

let test_config_validation () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.failf "%s accepted" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "users=0" (fun () -> Apps.Social.config ~users:0 ());
  expect_invalid "fanout=-1" (fun () -> Apps.Social.config ~fanout:(-1) ());
  expect_invalid "zipf=0" (fun () -> Apps.Social.config ~zipf:0.0 ());
  expect_invalid "session online=0" (fun () ->
      Apps.Social.config ~session:(0.0, 8) ());
  expect_invalid "session epoch=0" (fun () ->
      Apps.Social.config ~session:(0.5, 0) ())

let test_scenario_social_keys () =
  match Simnet.Scenario.parse "topics=24;fanout=3;session=0.8:6" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok sc ->
      Alcotest.(check (option int)) "topics" (Some 24)
        sc.Simnet.Scenario.topics;
      Alcotest.(check (option int)) "fanout" (Some 3)
        sc.Simnet.Scenario.fanout;
      Alcotest.(check bool) "session" true
        (sc.Simnet.Scenario.session = Some (0.8, 6))

let test_scenario_unknown_key_suggestion () =
  (match Simnet.Scenario.parse "topic=8" with
  | Ok _ -> Alcotest.fail "typo accepted"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "suggests topics (%s)" e)
        true
        (let needle = "did you mean topics?" in
         let rec contains i =
           i + String.length needle <= String.length e
           && (String.sub e i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0));
  match Simnet.Scenario.parse "zzqq=8" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e ->
      Alcotest.(check bool) "no far-fetched suggestion" false
        (let needle = "did you mean" in
         let rec contains i =
           i + String.length needle <= String.length e
           && (String.sub e i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0)

let () =
  Alcotest.run "social"
    [
      ( "schedule",
        [
          Alcotest.test_case "shape and fan-out" `Quick test_schedule_shape;
          Alcotest.test_case "session gates offline users" `Quick
            test_session_gates_offline_users;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ qcheck_streamed_matches_reference ] );
      ( "runner",
        [
          Alcotest.test_case "accounting invariants" `Quick
            test_accounting_invariants;
          Alcotest.test_case "class-histogram merge invariance" `Quick
            test_class_hist_merge_invariance;
          Alcotest.test_case "domain-count independent" `Quick
            test_domains_invariant;
          Alcotest.test_case "reconfig holds, static loses (Thm 8)" `Quick
            test_reconfig_holds_static_loses;
          Alcotest.test_case "set-up independent of rounds" `Quick
            test_setup_independent_of_rounds;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "scenario keys" `Quick test_scenario_social_keys;
          Alcotest.test_case "unknown-key suggestion" `Quick
            test_scenario_unknown_key_suggestion;
        ] );
    ]

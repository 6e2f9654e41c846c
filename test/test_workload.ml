(* Tests for the workload subsystem: spec parsing, deterministic generation,
   the driver's accounting invariants, and the E16 shape (reconfiguration
   keeps goodput while the static baseline collapses under group-kill). *)

let seed = 0x57AB_1E5EL

(* ---------- Spec ---------- *)

let test_spec_defaults_and_guards () =
  let s = Workload.Spec.make () in
  Alcotest.(check int) "clients" 128 s.Workload.Spec.clients;
  let sum =
    s.Workload.Spec.mix.Workload.Spec.read
    +. s.Workload.Spec.mix.Workload.Spec.write
    +. s.Workload.Spec.mix.Workload.Spec.publish
  in
  Alcotest.(check bool) "mix normalized" true (abs_float (sum -. 1.0) < 1e-9);
  (try
     ignore (Workload.Spec.make ~keys:(1 lsl 20) ());
     Alcotest.fail "keys >= 2^20 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Workload.Spec.make ~arrivals:(Workload.Spec.Open_loop { rate = 0.0 }) ());
    Alcotest.fail "zero rate accepted"
  with Invalid_argument _ -> ()

let test_spec_parsers () =
  (match Workload.Spec.parse_arrivals "open:0.5" with
  | Ok (Workload.Spec.Open_loop { rate }) ->
      Alcotest.(check (float 1e-9)) "rate" 0.5 rate
  | _ -> Alcotest.fail "open:0.5");
  (match Workload.Spec.parse_arrivals "closed:3" with
  | Ok (Workload.Spec.Closed_loop { think }) ->
      Alcotest.(check int) "think" 3 think
  | _ -> Alcotest.fail "closed:3");
  (match Workload.Spec.parse_arrivals "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  (match Workload.Spec.parse_mix "read=1,write=1,publish=2" with
  | Ok m ->
      Alcotest.(check (float 1e-9)) "normalized publish" 0.5
        m.Workload.Spec.publish
  | Error e -> Alcotest.fail e);
  match Workload.Spec.parse_mix "read=1,bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown class accepted"

(* ---------- Gen: streamed admission ---------- *)

let spec_small =
  Workload.Spec.make ~clients:16 ~rounds:20 ~keys:64
    ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
    ()

let streamed spec =
  let src = Workload.Driver.spec_source ~seed (Workload.Driver.config spec) in
  Testutil.admitted ~rounds:spec.Workload.Spec.rounds src.Workload.Driver.admit

(* The oracle: the whole run's open-loop schedule built at once —
   per-client request lists, concatenated and stable-sorted by arrival
   round. *)
let reference_open_schedule ~spec ~seed =
  let rate =
    match spec.Workload.Spec.arrivals with
    | Workload.Spec.Open_loop { rate } -> rate
    | Workload.Spec.Closed_loop _ -> invalid_arg "closed-loop spec"
  in
  let draw_request = Workload.Gen.draw_request spec in
  let client_schedule client =
    let s = Workload.Gen.client_stream ~seed ~client in
    let out = ref [] and seq = ref 0 in
    for arrival = 0 to spec.Workload.Spec.rounds - 1 do
      let burst = Prng.Dist.poisson s rate in
      for _ = 1 to burst do
        let op, key = draw_request s in
        out := { Workload.Gen.client; seq = !seq; arrival; op; key } :: !out;
        incr seq
      done
    done;
    Array.of_list (List.rev !out)
  in
  let all =
    Array.concat (List.init spec.Workload.Spec.clients client_schedule)
  in
  Array.stable_sort
    (fun a b -> compare a.Workload.Gen.arrival b.Workload.Gen.arrival)
    all;
  all

let test_gen_schedule_sorted_and_in_range () =
  let sched = streamed spec_small in
  Alcotest.(check bool) "non-empty" true (Array.length sched > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "arrival in range" true
        (r.Workload.Gen.arrival >= 0
        && r.Workload.Gen.arrival < spec_small.Workload.Spec.rounds);
      Alcotest.(check bool) "key in range" true
        (r.Workload.Gen.key >= 0
        && r.Workload.Gen.key < spec_small.Workload.Spec.keys);
      if i > 0 then
        Alcotest.(check bool) "sorted by arrival" true
          (sched.(i - 1).Workload.Gen.arrival <= r.Workload.Gen.arrival))
    sched

let test_gen_client_streams_are_keyed () =
  (* client 3's requests do not depend on how many other clients exist *)
  let wide = { spec_small with Workload.Spec.clients = 32 } in
  let of_client c sched =
    List.filter (fun r -> r.Workload.Gen.client = c) (Array.to_list sched)
  in
  Alcotest.(check bool) "client 3 stream unchanged" true
    (of_client 3 (streamed spec_small) = of_client 3 (streamed wide))

(* Streamed admission over every round equals the whole-run reference.
   The source then runs [extra] rounds past the end, which read each
   client's next draws: a stream left at the wrong position shows there. *)
let extra = 4

let gen_mix =
  QCheck.Gen.(
    map3
      (fun read write publish ->
        if read +. write +. publish = 0.0 then
          { Workload.Spec.read = 1.0; write; publish }
        else { Workload.Spec.read; write; publish })
      (oneofl [ 0.0; 0.2; 0.7; 1.0 ])
      (oneofl [ 0.0; 0.2; 1.0 ])
      (oneofl [ 0.0; 0.1; 1.0 ]))

let gen_open_spec =
  QCheck.Gen.(
    map
      (fun ((clients, rounds, rate), (keys, popularity, mix)) ->
        Workload.Spec.make ~clients ~rounds ~keys
          ~arrivals:(Workload.Spec.Open_loop { rate })
          ~popularity ~mix ())
      (pair
         (triple (int_range 1 40) (int_range 1 30)
            (oneofl [ 0.05; 0.3; 1.0; 2.5 ]))
         (triple (int_range 1 300)
            (oneof
               [ return Workload.Spec.Uniform;
                 map
                   (fun z -> Workload.Spec.Zipf z)
                   (oneofl [ 0.6; 1.1; 2.0 ]) ])
            gen_mix)))

let qcheck_streamed_matches_reference =
  QCheck.Test.make ~name:"streamed open loop equals the whole-run reference"
    ~count:100
    (QCheck.make
       ~print:(fun (seed, spec) ->
         Printf.sprintf "seed=%Ld clients=%d rounds=%d keys=%d %s %s" seed
           spec.Workload.Spec.clients spec.Workload.Spec.rounds
           spec.Workload.Spec.keys
           (Workload.Spec.arrivals_to_string spec.Workload.Spec.arrivals)
           (Workload.Spec.mix_to_string spec.Workload.Spec.mix))
       QCheck.Gen.(pair ui64 gen_open_spec))
    (fun (seed, spec) ->
      let rounds = spec.Workload.Spec.rounds in
      let longer = { spec with Workload.Spec.rounds = rounds + extra } in
      let src =
        Workload.Driver.spec_source ~seed (Workload.Driver.config spec)
      in
      let got =
        Testutil.admitted ~rounds:(rounds + extra) src.Workload.Driver.admit
      in
      let in_run =
        List.filter
          (fun r -> r.Workload.Gen.arrival < rounds)
          (Array.to_list got)
      in
      Array.of_list in_run = reference_open_schedule ~spec ~seed
      && got = reference_open_schedule ~spec:longer ~seed)

(* ---------- Driver ---------- *)

let run_with ?(n = 256) ?trace cfg =
  Workload.Driver.run ?trace ~seed ~n cfg

let collect_trace f =
  let buf = Buffer.create 4096 in
  let t =
    Simnet.Trace.make
      ~emit:(fun ev ->
        Buffer.add_string buf (Simnet.Trace.jsonl_of_event ev);
        Buffer.add_char buf '\n')
      ~close:ignore
  in
  let r = f t in
  (r, Buffer.contents buf)

let counts (r : Workload.Driver.report) =
  let t = r.Workload.Driver.total in
  ( t.Workload.Driver.issued,
    t.Workload.Driver.ok,
    t.Workload.Driver.timed_out,
    t.Workload.Driver.failed )

let test_driver_no_attack_serves_everything () =
  let cfg = Workload.Driver.config spec_small in
  let r = run_with cfg in
  let issued, ok, timeout, failed = counts r in
  Alcotest.(check bool) "issued > 0" true (issued > 0);
  Alcotest.(check int) "all served" issued ok;
  Alcotest.(check int) "no timeouts" 0 timeout;
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check (float 1e-9)) "goodput 1" 1.0
    (Workload.Driver.goodput r.Workload.Driver.total)

let test_driver_accounting_invariants () =
  let cfg =
    Workload.Driver.config ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~retries:2
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      spec_small
  in
  let r = run_with cfg in
  let t = r.Workload.Driver.total in
  (* per-class counts add up, and every issued request ended exactly one way *)
  List.iter
    (fun (c : Workload.Driver.class_report) ->
      Alcotest.(check int)
        (c.Workload.Driver.cls ^ " conservation")
        c.Workload.Driver.issued
        (c.Workload.Driver.ok + c.Workload.Driver.timed_out
       + c.Workload.Driver.failed))
    r.Workload.Driver.classes;
  Alcotest.(check int) "issued = sum classes" t.Workload.Driver.issued
    (List.fold_left
       (fun a c -> a + c.Workload.Driver.issued)
       0 r.Workload.Driver.classes);
  (* the overall histogram is the merge of the class histograms *)
  Alcotest.(check int) "merged histogram covers all served"
    t.Workload.Driver.ok
    (Stats.Log_histogram.total t.Workload.Driver.hist)

let test_driver_deterministic_and_trace_stable () =
  let cfg =
    Workload.Driver.config ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~churn:{ Workload.Driver.frac = 0.1; epoch = 4 }
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      ~retries:3 spec_small
  in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t cfg) in
  let r2, t2 = collect_trace (fun t -> run_with ~trace:t cfg) in
  Alcotest.(check string) "byte-identical traces" t1 t2;
  Alcotest.(check bool) "same tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r2)

let test_driver_domains_do_not_change_results () =
  let c1 = Workload.Driver.config ~domains:1 spec_small in
  let c4 = Workload.Driver.config ~domains:4 spec_small in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t c1) in
  let r4, t4 = collect_trace (fun t -> run_with ~trace:t c4) in
  Alcotest.(check string) "byte-identical traces across domains" t1 t4;
  Alcotest.(check bool) "same tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r4)

let test_driver_inert_fault_plan_is_identity () =
  (* a zero-rate plan must not perturb a single coin flip *)
  let plain = Workload.Driver.config spec_small in
  let inert =
    Workload.Driver.config ~faults:(Simnet.Faults.make ()) spec_small
  in
  let r1, t1 = collect_trace (fun t -> run_with ~trace:t plain) in
  let r2, t2 = collect_trace (fun t -> run_with ~trace:t inert) in
  Alcotest.(check string) "identical traces" t1 t2;
  Alcotest.(check bool) "identical tables" true
    (Workload.Driver.table_lines r1 = Workload.Driver.table_lines r2)

let test_driver_closed_loop_one_outstanding () =
  let spec =
    Workload.Spec.make ~clients:8 ~rounds:30 ~keys:32
      ~arrivals:(Workload.Spec.Closed_loop { think = 2 })
      ()
  in
  let r = run_with (Workload.Driver.config spec) in
  let issued, ok, _, _ = counts r in
  Alcotest.(check bool) "each client issued at least once" true (issued >= 8);
  Alcotest.(check bool) "one outstanding per client bounds issues" true
    (issued <= 8 * 30);
  Alcotest.(check int) "all served" issued ok

let test_driver_setup_independent_of_rounds () =
  let words rounds =
    let spec =
      Workload.Spec.make ~clients:256 ~rounds
        ~arrivals:(Workload.Spec.Open_loop { rate = 1.0 })
        ()
    in
    Testutil.setup_words (fun trace ->
        run_with ~trace (Workload.Driver.config ~domains:1 spec))
  in
  (* a first run fills one-time caches (Zipf weight tables) *)
  ignore (words 64);
  let short = words 64 and long = words 512 in
  Alcotest.(check bool)
    (Printf.sprintf "set-up words %.0f (64 rounds) vs %.0f (512 rounds)" short
       long)
    true
    (Float.abs (long -. short) <= 1000.0)

(* A publish to a topic whose counter is at [max_seq] fails the attempt
   before any write; it does not escape as [Topic_full]. *)
let test_driver_full_topic_fails_attempt () =
  let spec = Workload.Spec.make ~clients:1 ~rounds:1 ~keys:1 () in
  let put_ok = ref false and published = ref None and counter = ref None in
  let exec (server : Workload.Driver.server) ~entry () =
    put_ok :=
      (server.put ~entry (Apps.Pubsub.counter_key 1)
         (string_of_int Apps.Pubsub.max_seq))
        .Workload.Backend_intf.ok;
    let res = server.publish ~entry ~topic:1 "full" in
    published := Some res.Workload.Backend_intf.ok;
    counter := (server.get ~entry (Apps.Pubsub.counter_key 1)).value;
    if res.ok then Workload.Driver.Served { service = 3; hops = res.hops }
    else Attempt_failed { hops = res.hops }
  in
  let source : unit Workload.Driver.source =
    {
      name = "test/run";
      fields = [];
      classes = [| "publish" |];
      class_of = (fun () -> 0);
      arrival = (fun () -> 0);
      client = (fun () -> 0);
      slo = [| 8 |];
      timeout = [| 16 |];
      retries = [| 0 |];
      admit = (fun ~round issue -> if round = 0 then issue ());
      release = (fun () ~at:_ -> ());
      exec;
      on_churn = (fun _ ~round:_ ~epoch:_ ~down:_ -> ());
      health = None;
    }
  in
  let r =
    Workload.Driver.serve
      (module Workload.Backends.Robust)
      ~who:"test" ~seed ~n:64
      (Workload.Driver.config ~domains:1 spec)
      source
  in
  Alcotest.(check bool) "counter preset" true !put_ok;
  Alcotest.(check (option bool)) "publish refused" (Some false) !published;
  Alcotest.(check (option string)) "counter untouched"
    (Some (string_of_int Apps.Pubsub.max_seq))
    !counter;
  let issued, ok, _, failed = counts r in
  Alcotest.(check (list int)) "issued, ok, failed" [ 1; 0; 1 ]
    [ issued; ok; failed ]

(* The E16 / Theorem 8 shape, on a test-sized instance. *)
let test_driver_reconfig_survives_static_collapses () =
  let spec =
    Workload.Spec.make ~clients:32 ~rounds:32 ~keys:256
      ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
      ~popularity:(Workload.Spec.Zipf 1.1) ()
  in
  let attacked mode =
    Workload.Driver.config ~mode ~period:8 ~lateness:8
      ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~faults:(Simnet.Faults.make ~drop:0.05 ())
      ~retries:3 spec
  in
  let reconfig =
    run_with ~n:512 (attacked Workload.Driver.Reconfig)
  in
  let static = run_with ~n:512 (attacked Workload.Driver.Static) in
  let g_r = Workload.Driver.goodput reconfig.Workload.Driver.total in
  let g_s = Workload.Driver.goodput static.Workload.Driver.total in
  Alcotest.(check bool)
    (Printf.sprintf "reconfig goodput %.3f >= 0.99" g_r)
    true (g_r >= 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "static goodput %.3f collapses below 0.9" g_s)
    true (g_s < 0.9);
  Alcotest.(check bool) "visible gap" true (g_r -. g_s >= 0.1)

(* What a run allocates per issued request, at a shape that takes every
   per-request path: Poisson arrivals over a Zipf key space, all three
   classes, dropped legs, retries, and timeouts and failures under
   group-kill.  The count covers the whole run, set-up and the eight
   reshuffles included.  Per request, the plane allocates its record, a
   write's payload and a read's value, plus a few words per attempt (the
   entry's option, the outcome, a result that carries a value): 44 words
   a request in all.  A plane with a queue cell and a record per pending
   request, closures in the entry pick and boxed floats in its draws and
   fault legs took 94. *)
let test_driver_allocation () =
  let spec =
    Workload.Spec.make ~clients:512 ~rounds:64
      ~arrivals:(Workload.Spec.Open_loop { rate = 1.0 })
      ()
  in
  let cfg =
    Workload.Driver.config ~attack:Workload.Attack.Group_kill ~frac:0.2
      ~faults:(Simnet.Faults.make ~drop:0.05 ~seed:3L ())
      ~retries:3 spec
  in
  let r, bytes = Testutil.allocated_bytes (fun () -> run_with ~n:1024 cfg) in
  let issued, _, timed_out, failed = counts r in
  let words = bytes /. 8.0 /. float_of_int issued in
  Alcotest.(check bool) "timeouts and failures" true
    (timed_out > 0 && failed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per issued request (%d issued)" words issued)
    true (words <= 55.0)

(* ---------- Attack ---------- *)

(* The workload adversary as it was before it observed by reference: for
   group-kill it copies the assignment into the snapshot window every
   round and inverts the viewed copy into per-supernode lists every round;
   for random blocking it rejects repeats through a fresh n-cell array
   every round.  Its draws and marks are the specification the
   target-list adversary, with its stamps, must keep. *)
module Copying_attack = struct
  type t = {
    strategy : Workload.Attack.strategy;
    budget : int;
    rng : Prng.Stream.t;
    dht : Apps.Robust_dht.t;
    snapshots : int array Simnet.Snapshots.t;
    hot : int array;
  }

  let hot_supernodes ~dht ~(spec : Workload.Spec.t) =
    let sns = Apps.Robust_dht.supernode_count dht in
    let heat = Array.make sns 0.0 in
    for key = 0 to spec.Workload.Spec.keys - 1 do
      let sn = Apps.Robust_dht.supernode_of_key dht key in
      let w =
        match spec.Workload.Spec.popularity with
        | Workload.Spec.Uniform -> 1.0
        | Workload.Spec.Zipf s -> 1.0 /. Float.pow (float_of_int (key + 1)) s
      in
      heat.(sn) <- heat.(sn) +. w
    done;
    let order = Array.init sns Fun.id in
    Array.sort
      (fun a b -> match compare heat.(b) heat.(a) with 0 -> compare a b | c -> c)
      order;
    order

  let create ~lateness ?staleness ~strategy ~frac ~rng ~dht ~spec () =
    let snapshots =
      Simnet.Snapshots.create ?staleness ~lateness rng
    in
    {
      strategy;
      budget = int_of_float (frac *. float_of_int (Apps.Robust_dht.n dht));
      rng;
      dht;
      snapshots;
      hot = hot_supernodes ~dht ~spec;
    }

  let observe t =
    if t.strategy = Workload.Attack.Group_kill then
      Simnet.Snapshots.push t.snapshots (Apps.Robust_dht.group_of t.dht)

  let mark t ~into =
    let n = Apps.Robust_dht.n t.dht in
    if t.budget > 0 then
      match (t.strategy, Simnet.Snapshots.view t.snapshots) with
      | Workload.Attack.No_attack, _ | Workload.Attack.Group_kill, None -> ()
      | Workload.Attack.Random_blocking, _ ->
          let chosen = Array.make n false in
          let picked = ref 0 in
          while !picked < t.budget do
            let v = Prng.Stream.int t.rng n in
            if not chosen.(v) then begin
              chosen.(v) <- true;
              into.(v) <- true;
              incr picked
            end
          done
      | Workload.Attack.Group_kill, Some view ->
          let sns = Apps.Robust_dht.supernode_count t.dht in
          let members = Array.make sns [] in
          for v = Array.length view - 1 downto 0 do
            let sn = view.(v) in
            if sn >= 0 && sn < sns then members.(sn) <- v :: members.(sn)
          done;
          let left = ref t.budget in
          let hot_i = ref 0 in
          while !left > 0 && !hot_i < Array.length t.hot do
            List.iter
              (fun v ->
                if !left > 0 then begin
                  into.(v) <- true;
                  decr left
                end)
              members.(t.hot.(!hot_i));
            incr hot_i
          done
end

let gen_attack_case =
  QCheck.Gen.(
    let* strategy =
      oneofl
        Workload.Attack.[ No_attack; Random_blocking; Group_kill ]
    in
    let* period = int_range 2 6 in
    let* staleness =
      frequency
        [
          ( 3,
            map
              (fun l -> `Fixed l)
              (oneofl [ 0; 1; period - 1; period; 3 * period ]) );
          ( 1,
            map
              (fun f -> `Drawn (Simnet.Snapshots.Mixed f))
              (float_range 0.0 (float_of_int (3 * period))) );
          ( 1,
            let* lo = int_range 0 (2 * period) in
            let* w = int_range 0 (2 * period) in
            return (`Drawn (Simnet.Snapshots.Uniform (lo, lo + w))) );
        ]
    in
    let* rounds = int_range 1 40 in
    (* a reshuffle at each round with probability 1/period *)
    let* reshuffles = list_repeat rounds (map (fun x -> x = 0) (int_bound (period - 1))) in
    let* frac = oneofl [ 0.0; 0.05; 0.2; 0.45 ] in
    let* zipf = bool in
    let* seed = ui64 in
    return (strategy, staleness, reshuffles, frac, zipf, seed))

let print_attack_case (strategy, staleness, reshuffles, frac, zipf, seed) =
  Printf.sprintf "%s, %s, reshuffles at [%s], frac %g, %s, seed %Ld"
    (Workload.Attack.strategy_to_string strategy)
    (match staleness with
    | `Fixed l -> Printf.sprintf "lateness %d" l
    | `Drawn d -> "staleness " ^ Simnet.Snapshots.staleness_to_string d)
    (String.concat ";"
       (List.concat
          (List.mapi (fun r b -> if b then [ string_of_int r ] else []) reshuffles)))
    frac
    (if zipf then "zipf" else "uniform")
    seed

(* Between reshuffles the adversary pushes one shared inverted assignment
   where the copying adversary pushed a fresh copy every round; the marks
   must not tell them apart, in any round, whatever the lateness. *)
let qcheck_attack_matches_copying =
  QCheck.Test.make ~name:"shared-snapshot attack marks what the copying one does"
    ~count:300
    (QCheck.make ~print:print_attack_case gen_attack_case)
    (fun (strategy, staleness, reshuffles, frac, zipf, seed) ->
      let n = 256 in
      let dht = Apps.Robust_dht.create ~rng:(Prng.Stream.of_seed seed) ~n () in
      let spec =
        Workload.Spec.make ~keys:64
          ~popularity:(if zipf then Workload.Spec.Zipf 1.1 else Workload.Spec.Uniform)
          ()
      in
      let lateness, staleness =
        match staleness with
        | `Fixed l -> (l, None)
        | `Drawn d -> (0, Some d)
      in
      let rng () = Prng.Stream.of_seed (Int64.add seed 1L) in
      let adv =
        Workload.Attack.create ~lateness ?staleness ~strategy ~frac ~rng:(rng ())
          ~dht ~spec ()
      in
      let oracle =
        Copying_attack.create ~lateness ?staleness ~strategy ~frac ~rng:(rng ())
          ~dht ~spec ()
      in
      List.for_all
        (fun reshuffle ->
          if reshuffle then Apps.Robust_dht.reshuffle dht;
          Workload.Attack.observe adv;
          Copying_attack.observe oracle;
          let got = Array.make n false and want = Array.make n false in
          Workload.Attack.mark adv ~into:got;
          Copying_attack.mark oracle ~into:want;
          got = want)
        reshuffles)

(* Between two reshuffles a round's observe and mark share the target
   list built at the first, and random blocking rejects repeats through
   the adversary's stamps: O(1) words a round where copying the
   assignment and inverting it, or a fresh array to reject repeats, took
   n words or more. *)
let test_attack_allocation_between_reshuffles () =
  let n = 1 lsl 14 and period = 8 in
  List.iter
    (fun strategy ->
      let dht = Apps.Robust_dht.create ~rng:(Prng.Stream.of_seed seed) ~n () in
      let adv =
        Workload.Attack.create ~lateness:period ~strategy ~frac:0.2
          ~rng:(Prng.Stream.of_seed 7L) ~dht ~spec:(Workload.Spec.make ()) ()
      in
      let into = Array.make n false in
      let round r =
        if r > 0 && r mod period = 0 then Apps.Robust_dht.reshuffle dht;
        Workload.Attack.observe adv;
        Array.fill into 0 n false;
        Workload.Attack.mark adv ~into
      in
      for r = 0 to 2 * period do
        round r
      done;
      let quiet = period - 1 in
      let (), bytes =
        Testutil.allocated_bytes (fun () ->
            for r = (2 * period) + 1 to (3 * period) - 1 do
              round r
            done)
      in
      let words = bytes /. 8.0 /. float_of_int quiet in
      let marked = Array.fold_left (fun a b -> if b then a + 1 else a) 0 into in
      let name = Workload.Attack.strategy_to_string strategy in
      Alcotest.(check int) (name ^ ": the last round spends the budget") (n / 5)
        marked;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words a round between reshuffles" name words)
        true (words <= 64.0))
    Workload.Attack.[ Random_blocking; Group_kill ]

(* Payloads and counters are formatted without Printf; the text must be
   what Printf and string_of_int print, byte for byte. *)
let decimal_agrees a b =
  Workload.Decimal.of_int a = string_of_int a
  && Workload.Decimal.pair 'v' a b = Printf.sprintf "%c%d.%d" 'v' a b
  && Workload.Decimal.pair 'u' b a = Printf.sprintf "%c%d.%d" 'u' b a

let test_decimal_edges () =
  let edges = [ 0; 1; 9; 10; 99; 100; 1_000_000; max_int; -1; min_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "%d, %d" a b)
            true (decimal_agrees a b))
        edges)
    edges

let qcheck_decimal_matches_printf =
  QCheck.Test.make ~name:"decimal text equals Printf" ~count:1000
    QCheck.(pair (oneof [ int; small_nat; int_bound 1_000_000 ]) small_nat)
    (fun (a, b) -> decimal_agrees a b && decimal_agrees (abs a) b)

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          Alcotest.test_case "defaults and guards" `Quick
            test_spec_defaults_and_guards;
          Alcotest.test_case "parsers" `Quick test_spec_parsers;
        ] );
      ( "gen",
        [
          Alcotest.test_case "schedule sorted, in range" `Quick
            test_gen_schedule_sorted_and_in_range;
          Alcotest.test_case "client streams keyed" `Quick
            test_gen_client_streams_are_keyed;
          Alcotest.test_case "decimal text" `Quick test_decimal_edges;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ qcheck_streamed_matches_reference; qcheck_decimal_matches_printf ]
      );
      ( "driver",
        [
          Alcotest.test_case "no attack serves everything" `Quick
            test_driver_no_attack_serves_everything;
          Alcotest.test_case "accounting invariants" `Quick
            test_driver_accounting_invariants;
          Alcotest.test_case "deterministic traces" `Quick
            test_driver_deterministic_and_trace_stable;
          Alcotest.test_case "domain-count independent" `Quick
            test_driver_domains_do_not_change_results;
          Alcotest.test_case "inert fault plan is identity" `Quick
            test_driver_inert_fault_plan_is_identity;
          Alcotest.test_case "closed loop" `Quick
            test_driver_closed_loop_one_outstanding;
          Alcotest.test_case "set-up independent of rounds" `Quick
            test_driver_setup_independent_of_rounds;
          Alcotest.test_case "full topic fails the attempt" `Quick
            test_driver_full_topic_fails_attempt;
          Alcotest.test_case "allocation per request" `Quick
            test_driver_allocation;
          Alcotest.test_case "reconfig survives, static collapses (Thm 8)"
            `Slow test_driver_reconfig_survives_static_collapses;
        ] );
      ( "attack",
        Alcotest.test_case "allocation between reshuffles" `Quick
          test_attack_allocation_between_reshuffles
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_attack_matches_copying ]
      );
    ]

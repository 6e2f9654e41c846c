(* Tests for the Section 7 applications: anonymizer, robust DHT, pub-sub. *)

let rng () = Testutil.rng ()

let make_dos_net ?(n = 2048) () =
  let s = rng () in
  Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n ()

(* ---------- Anonymizer (Corollary 2) ---------- *)

let test_anonymizer_unattacked () =
  let net = make_dos_net () in
  let a = Apps.Anonymizer.create ~net ~rng:(rng ()) in
  let blocked = Array.make (Core.Dos_network.n net) false in
  for _ = 1 to 100 do
    let r = Apps.Anonymizer.request a ~blocked in
    Alcotest.(check bool) "delivered" true r.Apps.Anonymizer.delivered;
    Alcotest.(check int) "O(1) rounds" 4 r.Apps.Anonymizer.rounds;
    Alcotest.(check bool) "has exit" true (r.Apps.Anonymizer.exit_server <> None)
  done

let test_anonymizer_under_blocking () =
  let net = make_dos_net () in
  let a = Apps.Anonymizer.create ~net ~rng:(rng ()) in
  let n = Core.Dos_network.n net in
  let s = rng () in
  let delivered = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let blocked = Array.make n false in
    Array.iter
      (fun v -> blocked.(v) <- true)
      (Prng.Stream.sample_distinct s n ~k:(n / 4));
    if (Apps.Anonymizer.request a ~blocked).Apps.Anonymizer.delivered then
      incr delivered
  done;
  (* group sizes ~ 2 c log n = 44; P(whole destination group blocked) tiny *)
  Alcotest.(check int)
    (Printf.sprintf "all %d delivered under random 25%% blocking" trials)
    trials !delivered

let test_anonymizer_blocked_entry_fails () =
  let net = make_dos_net () in
  let a = Apps.Anonymizer.create ~net ~rng:(rng ()) in
  let n = Core.Dos_network.n net in
  let blocked = Array.make n false in
  blocked.(17) <- true;
  let r = Apps.Anonymizer.request_via a ~blocked ~entry:17 in
  Alcotest.(check bool) "fails fast" false r.Apps.Anonymizer.delivered;
  Alcotest.(check int) "one round" 1 r.Apps.Anonymizer.rounds

let test_anonymizer_exit_group_matches_entry () =
  let net = make_dos_net () in
  let a = Apps.Anonymizer.create ~net ~rng:(rng ()) in
  let n = Core.Dos_network.n net in
  let blocked = Array.make n false in
  let group_of = Core.Dos_network.group_of net in
  for entry = 0 to 20 do
    let r = Apps.Anonymizer.request_via a ~blocked ~entry in
    match (r.Apps.Anonymizer.exit_server, r.Apps.Anonymizer.exit_group) with
    | Some exit, Some g ->
        Alcotest.(check int) "exit in destination group" group_of.(entry) g;
        Alcotest.(check int) "exit server in that group" g group_of.(exit);
        Alcotest.(check bool) "exit is not the entry" true (exit <> entry)
    | _ -> Alcotest.fail "expected delivery"
  done

let test_anonymizer_exit_entropy () =
  (* Anonymity: over many requests, the exit group is (near) uniform over
     the supernodes. *)
  let net = make_dos_net ~n:4096 () in
  let a = Apps.Anonymizer.create ~net ~rng:(rng ()) in
  let n = Core.Dos_network.n net in
  let blocked = Array.make n false in
  let counts = Array.make (Core.Dos_network.supernode_count net) 0 in
  for _ = 1 to 20_000 do
    match (Apps.Anonymizer.request a ~blocked).Apps.Anonymizer.exit_group with
    | Some g -> counts.(g) <- counts.(g) + 1
    | None -> Alcotest.fail "expected delivery"
  done;
  (* entry servers are uniform; groups have slightly varying sizes, so the
     exit group is size-weighted — demand high normalized entropy rather
     than exact uniformity *)
  Alcotest.(check bool) "normalized exit entropy > 0.98" true
    (Stats.Entropy.normalized_of_counts counts > 0.98)

(* ---------- Robust DHT (Theorem 8) ---------- *)

let make_dht ?(n = 2048) ?(k = 4) () =
  let s = rng () in
  Apps.Robust_dht.create ~k ~rng:(Prng.Stream.split s) ~n ()

let test_dht_structure () =
  let dht = make_dht () in
  Alcotest.(check int) "arity" 4 (Apps.Robust_dht.k dht);
  let kd = Apps.Robust_dht.supernode_count dht in
  Alcotest.(check bool) "k^d <= n / log n" true
    (float_of_int kd <= 2048.0 /. 11.0);
  Alcotest.(check int) "k^d" kd
    (int_of_float (4.0 ** float_of_int (Apps.Robust_dht.dimension dht)))

let test_dht_read_your_writes () =
  let dht = make_dht () in
  let blocked = Array.make (Apps.Robust_dht.n dht) false in
  for key = 0 to 99 do
    let w =
      Apps.Robust_dht.execute dht ~blocked
        (Apps.Robust_dht.Write (key, Printf.sprintf "value-%d" key))
    in
    Alcotest.(check bool) "write ok" true w.Apps.Robust_dht.ok
  done;
  for key = 0 to 99 do
    let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read key) in
    Alcotest.(check (option string)) "read back"
      (Some (Printf.sprintf "value-%d" key))
      r.Apps.Robust_dht.value;
    Alcotest.(check bool) "hops within diameter" true
      (r.Apps.Robust_dht.hops <= Apps.Robust_dht.dimension dht)
  done

let test_dht_missing_key () =
  let dht = make_dht () in
  let blocked = Array.make (Apps.Robust_dht.n dht) false in
  let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read 424242) in
  Alcotest.(check bool) "routed fine" true r.Apps.Robust_dht.ok;
  Alcotest.(check (option string)) "no value" None r.Apps.Robust_dht.value

let test_dht_survives_reshuffle () =
  (* The RoBuSt insight carried over: data is keyed to supernodes, so
     reconfiguring the groups does not lose it. *)
  let dht = make_dht () in
  let blocked = Array.make (Apps.Robust_dht.n dht) false in
  ignore
    (Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Write (7, "seven")));
  let before = Apps.Robust_dht.group_of dht in
  Apps.Robust_dht.reshuffle dht;
  let after = Apps.Robust_dht.group_of dht in
  Alcotest.(check bool) "groups changed" true (before <> after);
  let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read 7) in
  Alcotest.(check (option string)) "data survived" (Some "seven")
    r.Apps.Robust_dht.value

let test_dht_under_light_blocking () =
  (* Theorem 8's regime: at most gamma n^(1/loglog n) blocked servers — far
     fewer than a group, so everything is served. *)
  let dht = make_dht ~n:4096 () in
  let n = Apps.Robust_dht.n dht in
  let s = rng () in
  let budget = int_of_float (2.0 *. Float.pow (float_of_int n) (1.0 /. 3.58)) in
  let blocked = Array.make n false in
  Array.iter
    (fun v -> blocked.(v) <- true)
    (Prng.Stream.sample_distinct s n ~k:budget);
  let ops =
    List.init 500 (fun i ->
        if i mod 2 = 0 then Apps.Robust_dht.Write (i, string_of_int i)
        else Apps.Robust_dht.Read (i - 1))
  in
  let b = Apps.Robust_dht.execute_batch dht ~blocked ops in
  Alcotest.(check int) "all served" 500 b.Apps.Robust_dht.served;
  Alcotest.(check bool) "hops bounded by diameter" true
    (b.Apps.Robust_dht.max_hops <= Apps.Robust_dht.dimension dht);
  Alcotest.(check bool) "congestion polylog-ish" true
    (b.Apps.Robust_dht.max_group_load < 500)

let test_dht_heavy_blocking_can_fail () =
  (* Control: blocking beyond the theorem's budget can starve groups. *)
  let dht = make_dht ~n:256 ~k:2 () in
  let n = Apps.Robust_dht.n dht in
  (* kill every member of the responsible group for key 0 *)
  let target = Apps.Robust_dht.supernode_of_key dht 0 in
  let blocked = Array.make n false in
  Array.iteri
    (fun v g -> if g = target then blocked.(v) <- true)
    (Apps.Robust_dht.group_of dht);
  let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read 0) in
  Alcotest.(check bool) "request fails" false r.Apps.Robust_dht.ok

let test_dht_hash_stable_and_in_range () =
  let dht = make_dht () in
  for key = 0 to 999 do
    let a = Apps.Robust_dht.supernode_of_key dht key in
    let b = Apps.Robust_dht.supernode_of_key dht key in
    Alcotest.(check int) "deterministic" a b;
    let h = Prng.Splitmix64.mix (Int64.of_int key) in
    Alcotest.(check int) "SplitMix64 finalizer" a
      (Int64.to_int
         (Int64.rem (Int64.shift_right_logical h 1)
            (Int64.of_int (Apps.Robust_dht.supernode_count dht))));
    Alcotest.(check bool) "in range" true
      (a >= 0 && a < Apps.Robust_dht.supernode_count dht)
  done

let test_dht_random_entry_all_blocked () =
  let dht = make_dht ~n:256 () in
  let blocked = Array.make (Apps.Robust_dht.n dht) true in
  Alcotest.(check (option int)) "no entry exists" None
    (Apps.Robust_dht.random_entry dht ~blocked);
  (* the bounded rejection sampling must fall back to the survivor scan,
     not spin forever, and then find nothing *)
  let s = rng () in
  Alcotest.(check (option int)) "caller stream variant" None
    (Apps.Robust_dht.random_entry_with dht ~rng:(Prng.Stream.split s) ~blocked)

let test_dht_random_entry_one_survivor () =
  let dht = make_dht ~n:256 () in
  let n = Apps.Robust_dht.n dht in
  let survivor = 137 in
  let blocked = Array.make n true in
  blocked.(survivor) <- false;
  let s = rng () in
  (* far beyond the 30-draw rejection bound: every pick must land on the
     single non-blocked server via the scan fallback *)
  for _ = 1 to 50 do
    Alcotest.(check (option int)) "only survivor" (Some survivor)
      (Apps.Robust_dht.random_entry_with dht ~rng:s ~blocked)
  done

let test_dht_random_entry_unblocked_is_cheap_draw () =
  (* with nothing blocked the first draw is accepted, so two equal streams
     yield the exact same entry sequence as plain bounded draws *)
  let dht = make_dht ~n:256 () in
  let n = Apps.Robust_dht.n dht in
  let blocked = Array.make n false in
  let seed = 0xFEED_0123L in
  let a = Prng.Stream.of_seed seed and b = Prng.Stream.of_seed seed in
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "one draw per entry"
      (Some (Prng.Stream.int b n))
      (Apps.Robust_dht.random_entry_with dht ~rng:a ~blocked)
  done

(* ---------- Pub-sub ---------- *)

let make_pubsub () =
  let dht = make_dht () in
  (Apps.Pubsub.create ~dht, Array.make (Apps.Robust_dht.n dht) false)

let test_pubsub_publish_fetch () =
  let ps, blocked = make_pubsub () in
  Alcotest.(check (option int)) "fresh topic" (Some 0)
    (Apps.Pubsub.last_seq ps ~blocked ~topic:5);
  Alcotest.(check (option int)) "first publication" (Some 1)
    (Apps.Pubsub.publish ps ~blocked ~topic:5 ~payload:"a");
  Alcotest.(check (option int)) "second" (Some 2)
    (Apps.Pubsub.publish ps ~blocked ~topic:5 ~payload:"b");
  Alcotest.(check (option (list string))) "fetch all" (Some [ "a"; "b" ])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:5 ~since:0);
  Alcotest.(check (option (list string))) "fetch since 1" (Some [ "b" ])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:5 ~since:1);
  Alcotest.(check (option (list string))) "fetch up to date" (Some [])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:5 ~since:2)

let test_pubsub_topics_isolated () =
  let ps, blocked = make_pubsub () in
  ignore (Apps.Pubsub.publish ps ~blocked ~topic:1 ~payload:"t1");
  ignore (Apps.Pubsub.publish ps ~blocked ~topic:2 ~payload:"t2");
  Alcotest.(check (option (list string))) "topic 1" (Some [ "t1" ])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:1 ~since:0);
  Alcotest.(check (option (list string))) "topic 2" (Some [ "t2" ])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:2 ~since:0)

let test_pubsub_batch_aggregation () =
  let ps, blocked = make_pubsub () in
  let items =
    List.concat_map
      (fun topic -> List.init 5 (fun i -> (topic, Printf.sprintf "%d-%d" topic i)))
      [ 10; 11; 12 ]
  in
  let published, failed = Apps.Pubsub.publish_batch ps ~blocked items in
  Alcotest.(check int) "all published" 15 published;
  Alcotest.(check int) "none failed" 0 failed;
  List.iter
    (fun topic ->
      Alcotest.(check (option int)) "counter advanced" (Some 5)
        (Apps.Pubsub.last_seq ps ~blocked ~topic);
      match Apps.Pubsub.fetch_since ps ~blocked ~topic ~since:0 with
      | None -> Alcotest.fail "fetch failed"
      | Some msgs ->
          Alcotest.(check int) "five messages" 5 (List.length msgs);
          (* order preserved *)
          Alcotest.(check string) "first" (Printf.sprintf "%d-0" topic)
            (List.hd msgs))
    [ 10; 11; 12 ]

let test_pubsub_exactly_once_ordered () =
  let ps, blocked = make_pubsub () in
  for i = 1 to 50 do
    ignore (Apps.Pubsub.publish ps ~blocked ~topic:99 ~payload:(string_of_int i))
  done;
  match Apps.Pubsub.fetch_since ps ~blocked ~topic:99 ~since:0 with
  | None -> Alcotest.fail "fetch failed"
  | Some msgs ->
      Alcotest.(check (list string)) "all messages, in order, exactly once"
        (List.init 50 (fun i -> string_of_int (i + 1)))
        msgs

(* Regression: a sequence number past 2^20 - 1 used to carry into the topic
   bits and silently collide with the next topic's key space; now every
   publish path raises the typed [Topic_full] before any write happens. *)

let make_pubsub_with_dht () =
  let dht = make_dht () in
  ( Apps.Pubsub.create ~dht,
    dht,
    Array.make (Apps.Robust_dht.n dht) false )

let set_counter dht ~blocked ~topic m =
  let w =
    Apps.Robust_dht.execute dht ~blocked
      (Apps.Robust_dht.Write (Apps.Pubsub.counter_key topic, string_of_int m))
  in
  Alcotest.(check bool) "counter primed" true w.Apps.Robust_dht.ok

let test_pubsub_topic_full_publish () =
  let ps, dht, blocked = make_pubsub_with_dht () in
  let topic = 7 in
  set_counter dht ~blocked ~topic Apps.Pubsub.max_seq;
  Alcotest.check_raises "publish past capacity"
    (Apps.Pubsub.Topic_full { topic; seq = Apps.Pubsub.max_seq + 1 })
    (fun () -> ignore (Apps.Pubsub.publish ps ~blocked ~topic ~payload:"x"));
  (* the next topic's key space is untouched: its counter still reads 0 and
     the last in-range composite of topic 7 stays below it *)
  Alcotest.(check (option int)) "next topic isolated" (Some 0)
    (Apps.Pubsub.last_seq ps ~blocked ~topic:(topic + 1));
  Alcotest.(check bool) "composite stays inside the topic's space" true
    (Apps.Pubsub.composite topic Apps.Pubsub.max_seq
    < Apps.Pubsub.counter_key (topic + 1))

let test_pubsub_topic_full_batch_before_write () =
  let ps, dht, blocked = make_pubsub_with_dht () in
  let topic = 9 in
  let m = Apps.Pubsub.max_seq - 2 in
  set_counter dht ~blocked ~topic m;
  let items = List.init 5 (fun i -> (topic, Printf.sprintf "p%d" i)) in
  Alcotest.check_raises "batch overflow detected up front"
    (Apps.Pubsub.Topic_full { topic; seq = m + 5 })
    (fun () -> ignore (Apps.Pubsub.publish_batch ps ~blocked items));
  (* raised before any write: counter unchanged, no payload stored *)
  Alcotest.(check (option int)) "counter unchanged" (Some m)
    (Apps.Pubsub.last_seq ps ~blocked ~topic);
  Alcotest.(check (option string)) "no partial publication" None
    (Apps.Robust_dht.peek dht (Apps.Pubsub.composite topic (m + 1)))

let test_pubsub_composite_raises () =
  Alcotest.check_raises "composite past max_seq"
    (Apps.Pubsub.Topic_full { topic = 3; seq = Apps.Pubsub.max_seq + 1 })
    (fun () ->
      ignore (Apps.Pubsub.composite 3 (Apps.Pubsub.max_seq + 1)));
  Alcotest.check_raises "negative still Invalid_argument"
    (Invalid_argument "Pubsub: key out of range") (fun () ->
      ignore (Apps.Pubsub.composite 3 (-1)))

let test_pubsub_under_blocking () =
  let ps, blocked = make_pubsub () in
  let n = Array.length blocked in
  let s = rng () in
  Array.iter
    (fun v -> blocked.(v) <- true)
    (Prng.Stream.sample_distinct s n ~k:(n / 20));
  ignore (Apps.Pubsub.publish ps ~blocked ~topic:3 ~payload:"x");
  Alcotest.(check (option (list string))) "works under light blocking"
    (Some [ "x" ])
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:3 ~since:0)

(* ---------- Butterfly aggregation (Section 7.3) ---------- *)

let test_butterfly_correctness () =
  let cube = Topology.Kary_hypercube.create ~k:3 ~d:3 in
  let supernodes = Topology.Kary_hypercube.node_count cube in
  let dest_of_key key = key * 7 mod supernodes in
  let s = rng () in
  (* random contributions; compute expected totals naively *)
  let contributions = Array.make supernodes [] in
  let expected = Hashtbl.create 32 in
  for x = 0 to supernodes - 1 do
    for _ = 1 to 5 do
      let key = Prng.Stream.int s 12 in
      let count = 1 + Prng.Stream.int s 4 in
      contributions.(x) <- (key, count) :: contributions.(x);
      Hashtbl.replace expected key
        (count + Option.value ~default:0 (Hashtbl.find_opt expected key))
    done
  done;
  let totals, stats = Apps.Butterfly.aggregate ~cube ~dest_of_key ~contributions in
  Alcotest.(check int) "phases = d" 3 stats.Apps.Butterfly.phases;
  Hashtbl.iter
    (fun key total ->
      let dest = dest_of_key key in
      Alcotest.(check (option int))
        (Printf.sprintf "key %d total at owner %d" key dest)
        (Some total)
        (Hashtbl.find_opt totals.(dest) key))
    expected;
  (* nothing stranded elsewhere *)
  Array.iteri
    (fun x tbl ->
      Hashtbl.iter
        (fun key _ ->
          Alcotest.(check int) "only owned keys present" x (dest_of_key key))
        tbl)
    totals

let test_butterfly_hot_key_congestion () =
  (* One hot key contributed by every supernode: combining caps the owner's
     load at (k-1) messages in the final phase, vs one per contributor
     without combining. *)
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let supernodes = Topology.Kary_hypercube.node_count cube in
  let contributions = Array.make supernodes [ (42, 1) ] in
  let dest_of_key _ = 0 in
  let totals, stats = Apps.Butterfly.aggregate ~cube ~dest_of_key ~contributions in
  Alcotest.(check (option int)) "all combined" (Some supernodes)
    (Hashtbl.find_opt totals.(0) 42);
  let naive =
    Apps.Butterfly.naive_max_load ~cube ~dest_of_key ~contributions
  in
  Alcotest.(check int) "naive load = one per contributor" (supernodes - 1) naive;
  Alcotest.(check bool)
    (Printf.sprintf "combined load %d << naive %d" stats.Apps.Butterfly.max_phase_load naive)
    true
    (stats.Apps.Butterfly.max_phase_load * 4 < naive);
  Alcotest.(check bool) "combines happened" true (stats.Apps.Butterfly.combines > 0)

let test_butterfly_empty_and_zero () =
  let cube = Topology.Kary_hypercube.create ~k:2 ~d:3 in
  let supernodes = Topology.Kary_hypercube.node_count cube in
  let contributions = Array.make supernodes [] in
  contributions.(1) <- [ (5, 0) ];
  (* zero counts dropped *)
  let totals, stats =
    Apps.Butterfly.aggregate ~cube ~dest_of_key:(fun _ -> 0) ~contributions
  in
  Alcotest.(check int) "no messages" 0 stats.Apps.Butterfly.messages;
  Array.iter
    (fun tbl -> Alcotest.(check int) "all empty" 0 (Hashtbl.length tbl))
    totals

let test_pubsub_aggregated_end_to_end () =
  let ps, blocked = make_pubsub () in
  let items =
    List.concat_map
      (fun topic -> List.init 8 (fun i -> (topic, Printf.sprintf "%d:%d" topic i)))
      [ 70; 71; 72 ]
  in
  let (published, failed), stats =
    Apps.Pubsub.publish_batch_aggregated ps ~blocked items
  in
  Alcotest.(check int) "all published" 24 published;
  Alcotest.(check int) "none failed" 0 failed;
  Alcotest.(check bool) "aggregation ran" true (stats.Apps.Butterfly.phases > 0);
  List.iter
    (fun topic ->
      Alcotest.(check (option int)) "counter" (Some 8)
        (Apps.Pubsub.last_seq ps ~blocked ~topic);
      match Apps.Pubsub.fetch_since ps ~blocked ~topic ~since:0 with
      | Some msgs ->
          Alcotest.(check int) "all fetchable" 8 (List.length msgs);
          Alcotest.(check string) "order preserved"
            (Printf.sprintf "%d:0" topic) (List.hd msgs)
      | None -> Alcotest.fail "fetch failed")
    [ 70; 71; 72 ]

let test_pubsub_aggregated_matches_direct () =
  (* Same publications through both paths on separate topics must yield the
     same counters and fetchable streams. *)
  let ps, blocked = make_pubsub () in
  let mk topic = List.init 10 (fun i -> (topic, string_of_int i)) in
  let p1, f1 = Apps.Pubsub.publish_batch ps ~blocked (mk 80) in
  let (p2, f2), _ = Apps.Pubsub.publish_batch_aggregated ps ~blocked (mk 81) in
  Alcotest.(check (pair int int)) "same outcome" (p1, f1) (p2, f2);
  Alcotest.(check bool) "same streams" true
    (Apps.Pubsub.fetch_since ps ~blocked ~topic:80 ~since:0
    = Apps.Pubsub.fetch_since ps ~blocked ~topic:81 ~since:0)

(* ---------- Staged butterfly router (Section 7.2) ---------- *)

let test_staged_reads_correct () =
  let dht = make_dht () in
  let blocked = Array.make (Apps.Robust_dht.n dht) false in
  for key = 0 to 49 do
    ignore
      (Apps.Robust_dht.execute dht ~blocked
         (Apps.Robust_dht.Write (key, Printf.sprintf "v%d" key)))
  done;
  let keys = Array.init 100 (fun i -> i mod 60) in
  let results, stats = Apps.Staged_router.read_batch ~dht ~blocked ~keys in
  Alcotest.(check int) "stages = d" (Apps.Robust_dht.dimension dht)
    stats.Apps.Staged_router.stages;
  Alcotest.(check int) "none failed" 0 stats.Apps.Staged_router.failed;
  Array.iteri
    (fun i key ->
      let expected = if key < 50 then Some (Printf.sprintf "v%d" key) else None in
      Alcotest.(check (option string))
        (Printf.sprintf "request %d (key %d)" i key)
        expected results.(i))
    keys

let test_staged_hot_key_combining () =
  let dht = make_dht ~n:4096 () in
  let blocked = Array.make 4096 false in
  ignore
    (Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Write (7, "hot")));
  let keys = Array.make 2000 7 in
  let results, stats = Apps.Staged_router.read_batch ~dht ~blocked ~keys in
  Array.iter
    (fun r -> Alcotest.(check (option string)) "every rider served" (Some "hot") r)
    results;
  let naive = Apps.Staged_router.naive_service_rounds ~dht ~keys in
  Alcotest.(check bool)
    (Printf.sprintf "combined service %d << naive %d"
       stats.Apps.Staged_router.service_rounds naive)
    true
    (stats.Apps.Staged_router.service_rounds * 10 < naive);
  Alcotest.(check bool) "combines happened" true
    (stats.Apps.Staged_router.combined > 1000)

let test_staged_starved_path_fails () =
  (* The butterfly's fixed dimension order cannot detour: kill a group on
     the unique stage-0 path of a key and its requests die. *)
  let dht = make_dht ~n:512 ~k:2 () in
  let n = Apps.Robust_dht.n dht in
  let key = 3 in
  let dest = Apps.Robust_dht.supernode_of_key dht key in
  (* block the whole destination group: every request must fail *)
  let blocked = Array.make n false in
  Array.iter
    (fun v -> blocked.(v) <- true)
    (Apps.Robust_dht.group_members dht dest);
  let keys = Array.make 10 key in
  let results, stats = Apps.Staged_router.read_batch ~dht ~blocked ~keys in
  Alcotest.(check bool) "some requests failed" true
    (stats.Apps.Staged_router.failed > 0);
  Array.iter
    (fun r -> Alcotest.(check (option string)) "no value" None r)
    results

let test_pubsub_fetch_batch () =
  let ps, blocked = make_pubsub () in
  (* two topics with different backlogs *)
  for i = 1 to 6 do
    ignore (Apps.Pubsub.publish ps ~blocked ~topic:90 ~payload:(Printf.sprintf "a%d" i))
  done;
  for i = 1 to 3 do
    ignore (Apps.Pubsub.publish ps ~blocked ~topic:91 ~payload:(Printf.sprintf "b%d" i))
  done;
  (* a thousand subscribers of topic 90 (hot), a few of 91, one up to date,
     one of a fresh topic *)
  let subscribers =
    List.init 1000 (fun _ -> (90, 2))
    @ [ (91, 0); (91, 2); (90, 6); (92, 0) ]
  in
  let results, stats = Apps.Pubsub.fetch_batch ps ~blocked subscribers in
  Alcotest.(check int) "no failures" 0 stats.Apps.Staged_router.failed;
  for i = 0 to 999 do
    Alcotest.(check (option (list string))) "hot subscriber backlog"
      (Some [ "a3"; "a4"; "a5"; "a6" ]) results.(i)
  done;
  Alcotest.(check (option (list string))) "full topic 91"
    (Some [ "b1"; "b2"; "b3" ]) results.(1000);
  Alcotest.(check (option (list string))) "partial topic 91" (Some [ "b3" ])
    results.(1001);
  Alcotest.(check (option (list string))) "up to date" (Some []) results.(1002);
  Alcotest.(check (option (list string))) "fresh topic" (Some []) results.(1003);
  (* the hot topic's four keys were read once each, not a thousand times *)
  Alcotest.(check bool)
    (Printf.sprintf "dedup kept batch small (%d messages)"
       stats.Apps.Staged_router.total_messages)
    true
    (stats.Apps.Staged_router.total_messages < 100)

(* ---------- properties ---------- *)

let qcheck_staged_matches_peek =
  QCheck.Test.make ~name:"staged router agrees with direct store lookups"
    ~count:10
    QCheck.(pair int64 (int_range 1 60))
    (fun (seed, nkeys) ->
      let s = Prng.Stream.of_seed seed in
      let dht = Apps.Robust_dht.create ~rng:(Prng.Stream.split s) ~n:512 () in
      let blocked = Array.make 512 false in
      for key = 0 to 29 do
        ignore
          (Apps.Robust_dht.execute dht ~blocked
             (Apps.Robust_dht.Write (key, string_of_int key)))
      done;
      let keys = Array.init nkeys (fun _ -> Prng.Stream.int s 40) in
      let results, stats = Apps.Staged_router.read_batch ~dht ~blocked ~keys in
      stats.Apps.Staged_router.failed = 0
      && Array.for_all
           (fun i -> results.(i) = Apps.Robust_dht.peek dht keys.(i))
           (Array.init nkeys (fun i -> i)))

let qcheck_butterfly_totals_conserved =
  QCheck.Test.make ~name:"butterfly conserves every key's total" ~count:50
    QCheck.(pair int64 (int_range 2 4))
    (fun (seed, k) ->
      let cube = Topology.Kary_hypercube.create ~k ~d:3 in
      let supernodes = Topology.Kary_hypercube.node_count cube in
      let s = Prng.Stream.of_seed seed in
      let contributions =
        Array.init supernodes (fun _ ->
            List.init (Prng.Stream.int s 4) (fun _ ->
                (Prng.Stream.int s 9, 1 + Prng.Stream.int s 3)))
      in
      let grand_total =
        Array.fold_left
          (fun acc l -> List.fold_left (fun a (_, c) -> a + c) acc l)
          0 contributions
      in
      let dest_of_key key = key mod supernodes in
      let totals, _ =
        Apps.Butterfly.aggregate ~cube ~dest_of_key ~contributions
      in
      let collected =
        Array.fold_left
          (fun acc tbl -> Hashtbl.fold (fun _ c a -> a + c) tbl acc)
          0 totals
      in
      collected = grand_total)

let qcheck_dht_read_your_writes =
  QCheck.Test.make ~name:"DHT read-your-writes under random blocking"
    ~count:10
    QCheck.(pair int64 (int_range 0 50))
    (fun (seed, blocked_count) ->
      let s = Prng.Stream.of_seed seed in
      let dht = Apps.Robust_dht.create ~rng:(Prng.Stream.split s) ~n:512 () in
      let n = Apps.Robust_dht.n dht in
      let blocked = Array.make n false in
      Array.iter
        (fun v -> blocked.(v) <- true)
        (Prng.Stream.sample_distinct s n ~k:(min blocked_count (n / 8)));
      let ok = ref true in
      for key = 0 to 19 do
        let w =
          Apps.Robust_dht.execute dht ~blocked
            (Apps.Robust_dht.Write (key, string_of_int key))
        in
        let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read key) in
        if not (w.Apps.Robust_dht.ok && r.Apps.Robust_dht.value = Some (string_of_int key))
        then ok := false
      done;
      !ok)

(* The routing reference: [execute_at]'s request path as it was written
   over [Kary.coord]/[Kary.with_coord] and [Array.exists] on the groups.
   Returns (ok, hops) and bumps [load] as [execute_at] does. *)
let reference_execute dht ~blocked ~group_of ~load ~entry key =
  let cube = Apps.Robust_dht.cube dht in
  let module K = Topology.Kary_hypercube in
  let occupied x =
    Array.exists (fun v -> not blocked.(v)) (Apps.Robust_dht.group_members dht x)
  in
  if blocked.(entry) then (false, 0)
  else begin
    let dst = Apps.Robust_dht.supernode_of_key dht key in
    let src = group_of.(entry) in
    load.(src) <- load.(src) + 1;
    if not (occupied dst) then (false, 0)
    else begin
      let cur = ref src and hops = ref 0 and stuck = ref false in
      while !cur <> dst && not !stuck do
        let moved = ref false and i = ref 0 in
        while (not !moved) && !i < K.d cube do
          let ci = K.coord cube !cur !i and di = K.coord cube dst !i in
          if ci <> di then begin
            let next = K.with_coord cube !cur !i di in
            if occupied next then begin
              cur := next;
              incr hops;
              load.(next) <- load.(next) + 1;
              moved := true
            end
          end;
          incr i
        done;
        if not !moved then stuck := true
      done;
      if !stuck then (false, 0) else (true, !hops)
    end
  end

(* One DHT under blocked masks: a [full] fraction of the groups is
   blocked whole (starving routes through them), and every other server
   is blocked with probability [partial].  Each of two phases, the second
   after a reshuffle, draws two masks and builds one view of each, which
   then serve 100 interleaved requests.  Returns whether [execute_at]
   agreed with the reference under the request's mask on every request
   (ok, hops and the mask's whole [load] array after each), how many
   requests were served, and how many failed although the target group
   was occupied (a starved route). *)
let route_agreement ~seed ~n ~k ~full ~partial =
  let s = Prng.Stream.of_seed seed in
  let dht = Apps.Robust_dht.create ~k ~rng:(Prng.Stream.split s) ~n () in
  let groups = Apps.Robust_dht.supernode_count dht in
  let agree = ref true and served = ref 0 and starved = ref 0 in
  for phase = 0 to 1 do
    if phase = 1 then Apps.Robust_dht.reshuffle dht;
    let group_of = Apps.Robust_dht.group_of dht in
    let mask () =
      let dead = Array.init groups (fun _ -> Prng.Stream.bernoulli s full) in
      let blocked =
        Array.map (fun x -> dead.(x) || Prng.Stream.bernoulli s partial) group_of
      in
      (dead, blocked, Apps.Robust_dht.occupancy dht ~blocked)
    in
    let masks = [| mask (); mask () |] in
    let loads = Array.init 2 (fun _ -> Array.make groups 0) in
    let ref_loads = Array.init 2 (fun _ -> Array.make groups 0) in
    for i = 0 to 99 do
      let m = i land 1 in
      let dead, blocked, view = masks.(m) in
      let entry = Prng.Stream.int s n and key = Prng.Stream.int s 100_000 in
      let r =
        Apps.Robust_dht.execute_at dht ~view ~load:loads.(m) ~entry
          (Apps.Robust_dht.Read key)
      in
      let ok, hops =
        reference_execute dht ~blocked ~group_of ~load:ref_loads.(m) ~entry key
      in
      if r.Apps.Robust_dht.ok <> ok || r.Apps.Robust_dht.hops <> hops
         || loads.(m) <> ref_loads.(m)
      then agree := false;
      if ok then incr served
      else if (not blocked.(entry))
              && not dead.(Apps.Robust_dht.supernode_of_key dht key)
      then incr starved
    done
  done;
  (!agree, !served, !starved)

let qcheck_route_matches_reference =
  QCheck.Test.make ~name:"route equals the Kary.coord reference" ~count:40
    QCheck.(
      pair
        (triple int64 (int_range 64 1500) (oneofl [ 2; 3; 4; 5 ]))
        (pair (oneofl [ 0.0; 0.2; 0.5; 0.8; 1.0 ]) (oneofl [ 0.0; 0.3; 0.9 ])))
    (fun ((seed, n, k), (full, partial)) ->
      let agree, _, _ = route_agreement ~seed ~n ~k ~full ~partial in
      agree)

(* A view taken before a reshuffle describes groups that are gone:
   [execute_at] refuses it, and so a view of another DHT's size.  A view
   of the new groups serves the data written before the reshuffle. *)
let test_dht_stale_view () =
  let dht = make_dht ~n:256 () in
  let blocked = Array.make 256 false in
  let view = Apps.Robust_dht.occupancy dht ~blocked in
  let w =
    Apps.Robust_dht.execute_at dht ~view ~entry:0
      (Apps.Robust_dht.Write (7, "seven"))
  in
  Alcotest.(check bool) "fresh view serves" true w.Apps.Robust_dht.ok;
  Apps.Robust_dht.reshuffle dht;
  let stale = Invalid_argument "Robust_dht.execute_at: stale view" in
  Alcotest.check_raises "view before the reshuffle" stale (fun () ->
      ignore
        (Apps.Robust_dht.execute_at dht ~view ~entry:0
           (Apps.Robust_dht.Read 7)));
  let other = make_dht ~n:512 () in
  Alcotest.check_raises "view of another size" stale (fun () ->
      ignore
        (Apps.Robust_dht.execute_at dht
           ~view:(Apps.Robust_dht.occupancy other ~blocked:(Array.make 512 false))
           ~entry:0 (Apps.Robust_dht.Read 7)));
  let r =
    Apps.Robust_dht.execute_at dht
      ~view:(Apps.Robust_dht.occupancy dht ~blocked)
      ~entry:0 (Apps.Robust_dht.Read 7)
  in
  Alcotest.(check (option string)) "data stays" (Some "seven")
    r.Apps.Robust_dht.value;
  Alcotest.check_raises "blocked size"
    (Invalid_argument "Robust_dht.occupancy: blocked size mismatch") (fun () ->
      ignore (Apps.Robust_dht.occupancy dht ~blocked:(Array.make 255 false)))

(* Fixed cases that reach every outcome: served requests, and requests
   whose target group is occupied but whose every correction order is
   starved. *)
let test_dht_route_reference () =
  List.iter
    (fun k ->
      let agree, served, starved =
        route_agreement ~seed:(Int64.of_int k) ~n:1024 ~k ~full:0.5
          ~partial:0.3
      in
      Alcotest.(check bool) (Printf.sprintf "k=%d agrees" k) true agree;
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %d served, %d starved routes" k served starved)
        true
        (served > 0 && starved > 0))
    [ 2; 3; 4; 5 ]

(* A warmed DHT serves a request without allocating, through one view:
   a write's result is shared by every result of its hop count, and a
   read that finds its key allocates only its [op_result] (4 words), the
   [Some] around the value (2 words) and the value copied out of the
   store's arena (2 words for a 1-byte string). *)
let test_dht_execute_at_allocation () =
  let dht = make_dht () in
  let n = Apps.Robust_dht.n dht in
  let view =
    Apps.Robust_dht.occupancy dht ~blocked:(Array.init n (fun v -> v mod 3 = 0))
  in
  let load = Some (Array.make (Apps.Robust_dht.supernode_count dht) 0) in
  let writes = Array.init 64 (fun key -> Apps.Robust_dht.Write (key, "v")) in
  let reads = Array.init 64 (fun key -> Apps.Robust_dht.Read key) in
  let entries = Array.init 64 (fun i -> (3 * i) + 1) in
  let served = ref 0 in
  let serve ops =
    for i = 0 to 63 do
      let r =
        Apps.Robust_dht.execute_at dht ~view ?load ~entry:entries.(i) ops.(i)
      in
      if r.Apps.Robust_dht.ok then incr served
    done
  in
  serve writes;
  let per_call ops =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      serve ops
    done;
    (Gc.minor_words () -. w0) /. 64_000.0
  in
  let w = per_call writes and r = per_call reads in
  Alcotest.(check bool) "requests served" true (!served > 0);
  Alcotest.(check bool)
    (Printf.sprintf "write: %.2f words/call" w) true (w <= 0.01);
  Alcotest.(check bool) (Printf.sprintf "read: %.2f words/call" r) true
    (r <= 8.01)

(* The store's memory follows its live data, not its history.  10^5
   overwrites of one key, alternating 1 and 100 bytes, leave the DHT as
   large as a fresh one give or take one arena (the store compacts
   instead of appending forever).  10^5 distinct 8-byte values cost under
   8 words each: the memory model allows 7.6, 2 slot words at a load of
   at least 3/8 (5.3) plus an arena of at most twice the 9 live bytes
   (2.3). *)
let test_dht_store_memory () =
  let blocked = Array.make 256 false in
  let write dht key v =
    ignore
      (Apps.Robust_dht.execute_at dht
         ~view:(Apps.Robust_dht.occupancy dht ~blocked) ~entry:0
         (Apps.Robust_dht.Write (key, v)))
  in
  let words dht = Obj.reachable_words (Obj.repr dht) in
  let dht = make_dht ~n:256 () in
  let fresh = words dht in
  let short = "s" and long = String.make 100 'l' in
  for i = 1 to 100_000 do
    write dht 7 (if i land 1 = 0 then short else long)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "one key overwritten: %d words, fresh %d" (words dht) fresh)
    true
    (words dht - fresh <= 64);
  let dht = make_dht ~n:256 () in
  let fresh = words dht and entries = 100_000 in
  for key = 1 to entries do
    write dht key (Printf.sprintf "%08d" key)
  done;
  let per_entry = float_of_int (words dht - fresh) /. float_of_int entries in
  Alcotest.(check bool)
    (Printf.sprintf "distinct keys: %.2f words/entry" per_entry)
    true (per_entry <= 8.0)

let qcheck_pubsub_counter_monotone =
  QCheck.Test.make ~name:"pub-sub counters are monotone" ~count:10
    QCheck.(pair int64 (int_range 1 20))
    (fun (seed, publications) ->
      let s = Prng.Stream.of_seed seed in
      let dht = Apps.Robust_dht.create ~rng:(Prng.Stream.split s) ~n:512 () in
      let ps = Apps.Pubsub.create ~dht in
      let blocked = Array.make (Apps.Robust_dht.n dht) false in
      let ok = ref true in
      let last = ref 0 in
      for i = 1 to publications do
        match Apps.Pubsub.publish ps ~blocked ~topic:1 ~payload:(string_of_int i) with
        | Some seq ->
            if seq <= !last then ok := false;
            last := seq
        | None -> ok := false
      done;
      !ok && !last = publications)

(* ---------- the store against a reference map ---------- *)

(* Keys at the edges of the int range and of the pub-sub key packing,
   and a run of small ones, enough to grow the table several times. *)
let model_keys =
  Array.append
    [|
      min_int; min_int + 1; max_int; max_int - 1; -1;
      Apps.Pubsub.counter_key 5; Apps.Pubsub.composite 5 1;
      Apps.Pubsub.composite 5 Apps.Pubsub.max_seq;
      Apps.Pubsub.composite 1000 3;
    |]
    (Array.init 91 (fun i -> i - 45))

(* Value lengths around LEB128's prefix boundaries (a second byte at 128,
   a third at 16384), past 64 KiB, and short ones, the empty one
   included. *)
let gen_value_len =
  QCheck.Gen.(
    frequency
      [
        (20, int_bound 8);
        (6, oneofa [| 126; 127; 128; 129 |]);
        (2, oneofa [| 16383; 16384 |]);
        (1, return 65537);
      ])

let model_value len salt =
  String.init len (fun i -> Char.unsafe_chr ((salt + (i * 31)) land 0xff))

let print_store_op = function
  | Apps.Robust_dht.Read key -> Printf.sprintf "Read %d" key
  | Apps.Robust_dht.Write (key, v) ->
      Printf.sprintf "Write (%d, <%d bytes>)" key (String.length v)

let arb_store_ops =
  let op =
    QCheck.Gen.(
      let key = oneofa model_keys in
      frequency
        [
          (2, map (fun key -> Apps.Robust_dht.Read key) key);
          ( 3,
            map3
              (fun key len salt ->
                Apps.Robust_dht.Write (key, model_value len salt))
              key gen_value_len (int_bound 255) );
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(list print_store_op)
    QCheck.Gen.(list_size (int_range 1 400) op)

(* Random reads and writes through [execute_at], nothing blocked: every
   request is served, every read returns what a Hashtbl holding the same
   writes returns, and so does a final read of every key. *)
let qcheck_store_matches_model =
  QCheck.Test.make ~name:"DHT store equals a Hashtbl model" ~count:100
    arb_store_ops (fun ops ->
      let dht = make_dht ~n:256 () in
      let view = Apps.Robust_dht.occupancy dht ~blocked:(Array.make 256 false) in
      let model = Hashtbl.create 64 and entry = ref 0 in
      let agrees op =
        entry := (!entry + 37) mod 256;
        let r = Apps.Robust_dht.execute_at dht ~view ~entry:!entry op in
        r.Apps.Robust_dht.ok
        &&
        match op with
        | Apps.Robust_dht.Read key ->
            r.Apps.Robust_dht.value = Hashtbl.find_opt model key
        | Apps.Robust_dht.Write (key, v) ->
            Hashtbl.replace model key v;
            r.Apps.Robust_dht.value = None
      in
      List.for_all agrees ops
      && Array.for_all (fun key -> agrees (Apps.Robust_dht.Read key)) model_keys)

type backend_op =
  | Get of int
  | Put of int * string
  | Publish of int * string
  | Last_seq of int

(* Topics whose pub-sub keys no [Put] in [model_keys] touches. *)
let model_topics = [| 6; 7; 8; 9 |]

let print_backend_op = function
  | Get key -> Printf.sprintf "Get %d" key
  | Put (key, v) -> Printf.sprintf "Put (%d, <%d bytes>)" key (String.length v)
  | Publish (topic, v) ->
      Printf.sprintf "Publish (%d, <%d bytes>)" topic (String.length v)
  | Last_seq topic -> Printf.sprintf "Last_seq %d" topic

let arb_backend_ops =
  let op =
    QCheck.Gen.(
      let topic = oneofa model_topics and salt = int_bound 255 in
      let key =
        frequency
          [
            (3, oneofa model_keys);
            (1, map2 Apps.Pubsub.composite topic (int_bound 6));
          ]
      in
      frequency
        [
          (3, map (fun key -> Get key) key);
          ( 3,
            map3
              (fun key len salt -> Put (key, model_value len salt))
              (oneofa model_keys) gen_value_len salt );
          ( 2,
            map3
              (fun topic len salt -> Publish (topic, model_value len salt))
              topic gen_value_len salt );
          (1, map (fun topic -> Last_seq topic) topic);
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(list print_backend_op)
    QCheck.Gen.(list_size (int_range 1 200) op)

(* The same through [Workload.Backends.Robust] inside one attempt of a
   driver run, nothing blocked: a read after an acknowledged write
   returns it, a topic's publishes get sequence numbers 1, 2, 3, ... and
   [last_seq] reads the number of acknowledged publishes. *)
let qcheck_backend_matches_model =
  QCheck.Test.make ~name:"robust backend equals a model" ~count:50
    arb_backend_ops (fun ops ->
      let model = Hashtbl.create 64 and agreed = ref false in
      let seq topic =
        Option.fold ~none:0 ~some:int_of_string
          (Hashtbl.find_opt model (Apps.Pubsub.counter_key topic))
      in
      let agrees (server : Workload.Driver.server) ~entry op =
        match op with
        | Get key ->
            let r = server.get ~entry key in
            r.ok && r.value = Hashtbl.find_opt model key
        | Put (key, v) ->
            let r = server.put ~entry key v in
            Hashtbl.replace model key v;
            r.ok
        | Publish (topic, v) ->
            let next = seq topic + 1 in
            let r = server.publish ~entry ~topic v in
            Hashtbl.replace model (Apps.Pubsub.composite topic next) v;
            Hashtbl.replace model (Apps.Pubsub.counter_key topic)
              (string_of_int next);
            r.ok && r.value = Some (string_of_int next)
        | Last_seq topic ->
            let r = server.last_seq ~entry ~topic in
            let count = seq topic in
            r.ok
            && r.value = if count = 0 then None else Some (string_of_int count)
      in
      let exec server ~entry () =
        agreed := List.for_all (agrees server ~entry) ops;
        Workload.Driver.Served { service = 1; hops = 0 }
      in
      let source : unit Workload.Driver.source =
        {
          name = "test/model";
          fields = [];
          classes = [| "model" |];
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
      let spec = Workload.Spec.make ~clients:1 ~rounds:1 ~keys:1 () in
      ignore
        (Workload.Driver.serve
           (module Workload.Backends.Robust)
           ~who:"test" ~seed:7L ~n:256
           (Workload.Driver.config ~domains:1 spec)
           source);
      !agreed)

let () =
  Alcotest.run "apps"
    [
      ( "anonymizer",
        [
          Alcotest.test_case "unattacked delivery" `Quick
            test_anonymizer_unattacked;
          Alcotest.test_case "random blocking" `Quick
            test_anonymizer_under_blocking;
          Alcotest.test_case "blocked entry fails" `Quick
            test_anonymizer_blocked_entry_fails;
          Alcotest.test_case "exit in destination group" `Quick
            test_anonymizer_exit_group_matches_entry;
          Alcotest.test_case "exit entropy (anonymity)" `Slow
            test_anonymizer_exit_entropy;
        ] );
      ( "robust-dht",
        [
          Alcotest.test_case "structure" `Quick test_dht_structure;
          Alcotest.test_case "read your writes" `Quick test_dht_read_your_writes;
          Alcotest.test_case "missing key" `Quick test_dht_missing_key;
          Alcotest.test_case "survives reshuffle" `Quick
            test_dht_survives_reshuffle;
          Alcotest.test_case "light blocking (Thm 8 regime)" `Slow
            test_dht_under_light_blocking;
          Alcotest.test_case "heavy blocking fails (control)" `Quick
            test_dht_heavy_blocking_can_fail;
          Alcotest.test_case "hash stable" `Quick test_dht_hash_stable_and_in_range;
          Alcotest.test_case "route reference" `Quick test_dht_route_reference;
          Alcotest.test_case "execute_at allocation" `Quick
            test_dht_execute_at_allocation;
          Alcotest.test_case "stale view refused" `Quick test_dht_stale_view;
          Alcotest.test_case "store memory bound" `Quick test_dht_store_memory;
          Alcotest.test_case "random entry: all blocked" `Quick
            test_dht_random_entry_all_blocked;
          Alcotest.test_case "random entry: one survivor" `Quick
            test_dht_random_entry_one_survivor;
          Alcotest.test_case "random entry: O(1) draw unblocked" `Quick
            test_dht_random_entry_unblocked_is_cheap_draw;
        ] );
      ( "pubsub",
        [
          Alcotest.test_case "publish/fetch" `Quick test_pubsub_publish_fetch;
          Alcotest.test_case "topics isolated" `Quick test_pubsub_topics_isolated;
          Alcotest.test_case "batch aggregation" `Quick
            test_pubsub_batch_aggregation;
          Alcotest.test_case "exactly once, ordered" `Quick
            test_pubsub_exactly_once_ordered;
          Alcotest.test_case "under blocking" `Quick test_pubsub_under_blocking;
          Alcotest.test_case "topic full: publish raises typed" `Quick
            test_pubsub_topic_full_publish;
          Alcotest.test_case "topic full: batch raises before write" `Quick
            test_pubsub_topic_full_batch_before_write;
          Alcotest.test_case "topic full: composite guards" `Quick
            test_pubsub_composite_raises;
          Alcotest.test_case "combined fetch batch" `Quick
            test_pubsub_fetch_batch;
        ] );
      ( "staged-router",
        [
          Alcotest.test_case "reads correct" `Quick test_staged_reads_correct;
          Alcotest.test_case "hot-key combining" `Quick
            test_staged_hot_key_combining;
          Alcotest.test_case "starved path fails" `Quick
            test_staged_starved_path_fails;
        ] );
      ( "butterfly",
        [
          Alcotest.test_case "correctness" `Quick test_butterfly_correctness;
          Alcotest.test_case "hot-key congestion" `Quick
            test_butterfly_hot_key_congestion;
          Alcotest.test_case "empty/zero contributions" `Quick
            test_butterfly_empty_and_zero;
          Alcotest.test_case "aggregated publish end-to-end" `Quick
            test_pubsub_aggregated_end_to_end;
          Alcotest.test_case "aggregated matches direct" `Quick
            test_pubsub_aggregated_matches_direct;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_dht_read_your_writes;
            qcheck_pubsub_counter_monotone;
            qcheck_butterfly_totals_conserved;
            qcheck_staged_matches_peek;
            qcheck_route_matches_reference;
            qcheck_store_matches_model;
            qcheck_backend_matches_model;
          ] );
    ]

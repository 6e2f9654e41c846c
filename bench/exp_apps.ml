(* Experiments E11-E12: the Section 7 applications.

   E11 regenerates Corollary 2 (robust anonymous routing: delivery in O(1)
   rounds with a near-uniform exit distribution, against a late adversary;
   a 0-late control degrades).  E12 regenerates the qualitative content of
   Theorem 8 (the DHT serves every request with bounded hops and congestion
   while the blocked-server count respects the gamma n^(1/log log n)
   budget) plus pub-sub correctness. *)

open Exp_util

(* ---------- E11: anonymizer (Corollary 2) ---------- *)

let run_anonymizer ~n ~strategy ~lateness ~frac ~windows ~requests_per_round =
  let s =
    rng_for
      (Printf.sprintf "e11-%s-%d-%f" (Core.Dos_adversary.to_string strategy)
         lateness frac)
      n
  in
  let net =
    Core.Dos_network.create ~c:2.0 ~trace:(trace ())
      ~rng:(Prng.Stream.split s) ~n ()
  in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let anon = Apps.Anonymizer.create ~net ~rng:(Prng.Stream.split s) in
  let adv =
    Core.Dos_adversary.create ~trace:(trace ()) strategy
      ~rng:(Prng.Stream.split s) ~lateness ~frac
  in
  let delivered = ref 0 and total = ref 0 in
  let exit_counts = Array.make (Core.Dos_network.supernode_count net) 0 in
  let relays = Stats.Moments.create () in
  for _ = 1 to windows * Core.Dos_network.period net do
    Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
      (fun () -> Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    for _ = 1 to requests_per_round do
      incr total;
      let r = Apps.Anonymizer.request anon ~blocked in
      if r.Apps.Anonymizer.delivered then begin
        incr delivered;
        Stats.Moments.add_int relays r.Apps.Anonymizer.relays_used;
        match r.Apps.Anonymizer.exit_group with
        | Some g -> exit_counts.(g) <- exit_counts.(g) + 1
        | None -> ()
      end
    done;
    ignore (Core.Dos_network.run_round net ~blocked)
  done;
  let rate = float_of_int !delivered /. float_of_int !total in
  let entropy = Stats.Entropy.normalized_of_counts exit_counts in
  (rate, entropy, Stats.Moments.mean relays,
   Bench.rounds (windows * Core.Dos_network.period net))

let e11 () =
  let n = 4096 in
  let probe = Core.Dos_network.create ~c:2.0 ~rng:(rng_for "e11p" 0) ~n () in
  let p = Core.Dos_network.period probe in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E11 (Corollary 2) - anonymous routing under DoS, n=%d servers, 4 \
            rounds/request" n)
      ~columns:
        [
          "adversary"; "lateness"; "blocked frac"; "delivery rate";
          "exit entropy (norm.)"; "mean relays";
        ]
  in
  let scenarios =
    [
      (Core.Dos_adversary.Random_blocking, 0, 0.0);
      (Core.Dos_adversary.Random_blocking, 0, 0.25);
      (Core.Dos_adversary.Random_blocking, 0, 0.4);
      (Core.Dos_adversary.Group_kill, 2 * p, 0.25);
      (Core.Dos_adversary.Group_kill, 0, 0.25);
    ]
  in
  let note, bench_total = tally () in
  List.iter
    (fun (strategy, lateness, frac) ->
      let rate, entropy, mean_relays, b =
        run_anonymizer ~n ~strategy ~lateness ~frac ~windows:4
          ~requests_per_round:20
      in
      note b;
      Stats.Table.add_row table
        [
          Core.Dos_adversary.to_string strategy;
          int_c lateness;
          pct frac;
          pct rate;
          flt ~decimals:4 entropy;
          flt ~decimals:1 mean_relays;
        ])
    scenarios;
  Stats.Table.note table
    "paper: requests are delivered reliably and anonymously (exit point \
     uniform w.r.t. the attacker's knowledge) in O(1) rounds against a \
     (1/2-eps)-bounded Omega(log log n)-late adversary; the 0-late \
     group-kill row is the impossibility control";
  Stats.Table.print table;
  (* E11b: the anonymity guarantee made quantitative.  A passive observer
     sees which server a user contacts and wants to monitor the relays that
     will carry the message out.  Its best guess is the entry's group in
     its (stale) topology view; we measure how often the actual exit server
     falls inside that guessed set, as a function of lateness. *)
  let table_b =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E11b (Corollary 2, anonymity) - observer's chance of having \
            monitored the exit relay, vs view lateness (n=%d, period=%d)"
           n p)
      ~columns:
        [
          "view lateness"; "requests"; "guess-set size (mean)"; "hit rate";
          "blind-guess baseline";
        ]
  in
  List.iter
    (fun lateness ->
      let s = rng_for "e11b" lateness in
      let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n () in
      let anon = Apps.Anonymizer.create ~net ~rng:(Prng.Stream.split s) in
      let snaps = Simnet.Snapshots.create ~lateness s in
      let hits = ref 0 and total = ref 0 in
      let guess_sizes = Stats.Moments.create () in
      let blocked = Array.make n false in
      let requests_per_round = 10 in
      for _ = 1 to 6 * p do
        Simnet.Snapshots.push snaps (Core.Dos_network.group_of net);
        (match Simnet.Snapshots.view snaps with
        | None -> ()
        | Some view ->
            let current = Core.Dos_network.group_of net in
            for _ = 1 to requests_per_round do
              (* the observer sees the entry server of this request *)
              let entry = Prng.Stream.int s n in
              let r = Apps.Anonymizer.request_via anon ~blocked ~entry in
              match r.Apps.Anonymizer.exit_server with
              | None -> ()
              | Some exit ->
                  incr total;
                  (* guess: all servers that shared the entry's group in the
                     stale view *)
                  let guessed_group = view.(entry) in
                  let size = ref 0 and hit = ref false in
                  Array.iteri
                    (fun v g ->
                      if g = guessed_group then begin
                        incr size;
                        if v = exit then hit := true
                      end)
                    view;
                  ignore current;
                  Stats.Moments.add_int guess_sizes !size;
                  if !hit then incr hits
            done);
        ignore (Core.Dos_network.run_round net ~blocked)
      done;
      note (Bench.rounds (6 * p));
      let baseline =
        Stats.Moments.mean guess_sizes /. float_of_int n
      in
      Stats.Table.add_row table_b
        [
          int_c lateness;
          int_c !total;
          flt ~decimals:1 (Stats.Moments.mean guess_sizes);
          pct (if !total = 0 then 0.0 else float_of_int !hits /. float_of_int !total);
          pct baseline;
        ])
    [ 0; p / 2; p; 2 * p ];
  Stats.Table.note table_b
    "paper: with lateness >= the reconfiguration period the observer's view \
     of the groups is always stale, so monitoring the guessed group catches \
     the exit no more often than monitoring an equally sized random set; a \
     fresh view catches it essentially always";
  Stats.Table.print table_b;
  bench_total ()

(* ---------- E12: robust DHT + pub-sub (Theorem 8) ---------- *)

let dht_scenario ~k ~n ~blocked_count label =
  let s = rng_for ("e12" ^ label) (n + k) in
  let dht = Apps.Robust_dht.create ~k ~rng:(Prng.Stream.split s) ~n () in
  let blocked = Array.make n false in
  Array.iter
    (fun v -> blocked.(v) <- true)
    (Prng.Stream.sample_distinct s n ~k:blocked_count);
  (* one request per non-blocked server, alternating writes and reads *)
  let ops = ref [] in
  let key = ref 0 in
  for v = 0 to n - 1 do
    if not blocked.(v) then begin
      incr key;
      ops :=
        (if !key mod 2 = 0 then Apps.Robust_dht.Read (!key / 2)
         else Apps.Robust_dht.Write (!key / 2, string_of_int !key))
        :: !ops
    end
  done;
  let b = Apps.Robust_dht.execute_batch dht ~blocked (List.rev !ops) in
  Apps.Robust_dht.reshuffle dht;
  (* after a reconfiguration the data must still be readable *)
  let post_ok = ref true in
  for probe = 1 to 20 do
    let r =
      Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read probe)
    in
    if not r.Apps.Robust_dht.ok then post_ok := false
  done;
  (b, Apps.Robust_dht.dimension dht, !post_ok)

let e12 () =
  let n = 4096 in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E12 (Theorem 8) - robust DHT over the k-ary hypercube, n=%d, one \
            request per non-blocked server" n)
      ~columns:
        [
          "k"; "diameter d"; "blocked"; "served"; "failed"; "max hops";
          "max group load"; "reads ok after reshuffle";
        ]
  in
  (* Theorem 8 budget: gamma n^(1/log log n); loglog 4096 ~ 3.58 *)
  let budget =
    int_of_float (2.0 *. Float.pow (float_of_int n) (1.0 /. 3.58))
  in
  List.iter
    (fun k ->
      List.iter
        (fun (blocked_count, label) ->
          let b, d, post_ok =
            dht_scenario ~k ~n ~blocked_count (Printf.sprintf "%s%d" label k)
          in
          Stats.Table.add_row table
            [
              int_c k;
              int_c d;
              Printf.sprintf "%d (%s)" blocked_count label;
              int_c b.Apps.Robust_dht.served;
              int_c b.Apps.Robust_dht.failed;
              int_c b.Apps.Robust_dht.max_hops;
              int_c b.Apps.Robust_dht.max_group_load;
              bool_c post_ok;
            ])
        [ (0, "none"); (budget, "Thm8 budget"); (n / 4, "control: 25%") ])
    [ 4; 8 ];
  Stats.Table.note table
    "paper: with at most gamma n^(1/log log n) blocked servers, every \
     request is served with polylog congestion (Theorem 8); the 25% row \
     shows the budget matters but plain replication + adaptive routing \
     still degrades gracefully";
  (* pub-sub correctness sub-table *)
  let table2 =
    Stats.Table.create
      ~title:"E12b (Section 7.3) - publish-subscribe over the DHT"
      ~columns:
        [
          "topics"; "publications"; "published"; "fetch ok";
          "in order & exactly once";
        ]
  in
  let s = rng_for "e12b" 0 in
  let dht = Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s) ~n:2048 () in
  let ps = Apps.Pubsub.create ~dht in
  let blocked = Array.make 2048 false in
  Array.iter
    (fun v -> blocked.(v) <- true)
    (Prng.Stream.sample_distinct s 2048 ~k:40);
  let topics = 50 and per_topic = 20 in
  let items =
    List.concat_map
      (fun t -> List.init per_topic (fun i -> (t, Printf.sprintf "%d:%d" t i)))
      (List.init topics (fun t -> t))
  in
  let published, _failed = Apps.Pubsub.publish_batch ps ~blocked items in
  let fetch_ok = ref 0 and ordered = ref true in
  for t = 0 to topics - 1 do
    match Apps.Pubsub.fetch_since ps ~blocked ~topic:t ~since:0 with
    | Some msgs when List.length msgs = per_topic ->
        incr fetch_ok;
        List.iteri
          (fun i msg -> if msg <> Printf.sprintf "%d:%d" t i then ordered := false)
          msgs
    | _ -> ordered := false
  done;
  Stats.Table.add_row table2
    [
      int_c topics;
      int_c (topics * per_topic);
      int_c published;
      Printf.sprintf "%d/%d" !fetch_ok topics;
      bool_c !ordered;
    ];
  Stats.Table.note table2
    "paper: publications are aggregated per key, numbered m(k)+1.., and \
     retrievable by sequence number - exactly-once, ordered delivery";
  (* E12c: the point of the Ranade-style combining - a hot topic's counter
     owner sees O(d) combined messages instead of one per publication. *)
  let table3 =
    Stats.Table.create
      ~title:
        "E12c (Section 7.3) - hot-topic counter congestion: naive routing \
         vs butterfly combining, n=2048, k=4"
      ~columns:
        [
          "workload"; "publications"; "naive owner load";
          "butterfly max load/phase"; "combines"; "published";
        ]
  in
  let s3 = rng_for "e12c" 0 in
  List.iter
    (fun (label, mk_items) ->
      let dht3 =
        Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s3) ~n:2048 ()
      in
      let ps3 = Apps.Pubsub.create ~dht:dht3 in
      let blocked3 = Array.make 2048 false in
      let items = mk_items (Prng.Stream.split s3) in
      (* measure the naive load of the same contribution pattern *)
      let supernodes = Apps.Robust_dht.supernode_count dht3 in
      let group_of = Apps.Robust_dht.group_of dht3 in
      let contributions = Array.make supernodes [] in
      List.iter
        (fun (topic, _) ->
          match Apps.Robust_dht.random_entry dht3 ~blocked:blocked3 with
          | Some entry ->
              let x = group_of.(entry) in
              contributions.(x) <- (topic, 1) :: contributions.(x)
          | None -> ())
        items;
      let dest_of_key topic =
        Apps.Robust_dht.supernode_of_key dht3 (topic * 1048576)
      in
      let naive =
        Apps.Butterfly.naive_max_load
          ~cube:(Apps.Robust_dht.cube dht3)
          ~dest_of_key ~contributions
      in
      let (published, _failed), stats =
        Apps.Pubsub.publish_batch_aggregated ps3 ~blocked:blocked3 items
      in
      Stats.Table.add_row table3
        [
          label;
          int_c (List.length items);
          int_c naive;
          int_c stats.Apps.Butterfly.max_phase_load;
          int_c stats.Apps.Butterfly.combines;
          int_c published;
        ])
    [
      ( "1 hot topic",
        fun _ -> List.init 4000 (fun i -> (9, Printf.sprintf "p%d" i)) );
      ( "zipf over 64 topics",
        fun s ->
          let table = Prng.Dist.zipf_table ~n:64 ~s:1.2 in
          List.init 4000 (fun i ->
              (Prng.Dist.zipf_draw s table, Printf.sprintf "p%d" i)) );
      ( "uniform over 256 topics",
        fun s ->
          List.init 4000 (fun i ->
              (Prng.Stream.int s 256, Printf.sprintf "p%d" i)) );
    ];
  Stats.Table.note table3
    "paper: aggregating keys before touching the counters is what keeps \
     per-server congestion polylogarithmic under skewed publication \
     workloads (Ranade-style combining in the k-ary cube)";
  (* E12d: the butterfly batch router with read combining - the service
     time of one read per server when everyone wants the same key. *)
  let table4 =
    Stats.Table.create
      ~title:
        "E12d (Section 7.2) - lockstep butterfly read batches with \
         combining, n=2048, k=4"
      ~columns:
        [
          "workload"; "reads"; "naive service rounds";
          "combined service rounds"; "max stage load"; "failed";
        ]
  in
  let s4 = rng_for "e12d" 0 in
  let dht4 = Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s4) ~n:2048 () in
  let blocked4 = Array.make 2048 false in
  for key = 0 to 255 do
    ignore
      (Apps.Robust_dht.execute dht4 ~blocked:blocked4
         (Apps.Robust_dht.Write (key, string_of_int key)))
  done;
  List.iter
    (fun (label, keys) ->
      let naive = Apps.Staged_router.naive_service_rounds ~dht:dht4 ~keys in
      let _, st =
        Apps.Staged_router.read_batch ~dht:dht4 ~blocked:blocked4 ~keys
      in
      Stats.Table.add_row table4
        [
          label;
          int_c (Array.length keys);
          int_c naive;
          int_c st.Apps.Staged_router.service_rounds;
          int_c st.Apps.Staged_router.max_stage_load;
          int_c st.Apps.Staged_router.failed;
        ])
    [
      ("1 hot key", Array.make 2048 7);
      ( "zipf over 256 keys",
        let table = Prng.Dist.zipf_table ~n:256 ~s:1.2 in
        Array.init 2048 (fun _ ->
            Prng.Dist.zipf_draw (Prng.Stream.split s4) table - 1) );
      ( "uniform over 256 keys",
        Array.init 2048 (fun _ -> Prng.Stream.int s4 256) );
    ];
  Stats.Table.note table4
    "paper: emulating the k-ary butterfly with combining is what lets the \
     DHT serve a batch with one request per server in polylog time even \
     when every request targets the same key (Theorem 8 via Ranade [28])";
  Stats.Table.print table;
  Stats.Table.print table2;
  Stats.Table.print table3;
  Stats.Table.print table4;
  (* E12 never fed the counters: its summary is all zeros by design *)
  Bench.zero

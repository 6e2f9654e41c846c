(* Long-haul integration tests: many windows/epochs of the full stack under
   sustained adversarial pressure, with the applications running on top.
   These are the "does it keep working for hours" soak checks a downstream
   user would want before deploying. *)

let test_soak_churn_network () =
  (* 40 epochs of heavy churn, alternating adversary strategies, sizes
     swinging by 35% per epoch. *)
  let s = Prng.Stream.of_seed 0x50AB1L in
  let net = Core.Churn_network.create ~rng:(Prng.Stream.split s) ~n:600 () in
  for e = 1 to 40 do
    let strategy =
      List.nth Core.Churn_adversary.all (e mod List.length Core.Churn_adversary.all)
    in
    let grow = e mod 2 = 0 in
    let plan =
      Core.Churn_adversary.plan strategy ~rng:(Prng.Stream.split s)
        ~graph:(Core.Churn_network.graph net)
        ~leave_frac:(if grow then 0.1 else 0.35)
        ~join_frac:(if grow then 0.35 else 0.1)
    in
    let r =
      Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
        ~join_introducers:plan.Core.Churn_adversary.join_introducers
    in
    Alcotest.(check bool)
      (Printf.sprintf "epoch %d valid+connected" e)
      true
      (r.Core.Churn_network.valid && r.Core.Churn_network.connected);
    Alcotest.(check bool)
      (Printf.sprintf "epoch %d rounds bounded" e)
      true
      (r.Core.Churn_network.rounds < 40)
  done;
  Alcotest.(check bool) "size stayed sane" true
    (Core.Churn_network.size net > 100 && Core.Churn_network.size net < 10_000)

let test_soak_dos_with_anonymizer () =
  (* 12 windows of the DoS network under a late group-kill attack, issuing
     anonymizer requests every round — the application must keep a 100%
     delivery rate throughout. *)
  let s = Prng.Stream.of_seed 0x50AB2L in
  let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n:2048 () in
  let n = Core.Dos_network.n net in
  let p = Core.Dos_network.period net in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let anon = Apps.Anonymizer.create ~net ~rng:(Prng.Stream.split s) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s) ~lateness:(2 * p) ~frac:0.25
  in
  let delivered = ref 0 and total = ref 0 in
  for _ = 1 to 12 * p do
    Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
      (fun () -> Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    for _ = 1 to 3 do
      incr total;
      if (Apps.Anonymizer.request anon ~blocked).Apps.Anonymizer.delivered then
        incr delivered
    done;
    let r = Core.Dos_network.run_round net ~blocked in
    Alcotest.(check bool) "never starved" true
      (r.Core.Dos_network.starved_groups = 0);
    Alcotest.(check bool) "always connected" true r.Core.Dos_network.connected
  done;
  Alcotest.(check int) "every request delivered" !total !delivered;
  Alcotest.(check int) "all windows completed" 12
    (Core.Dos_network.windows_completed net)

let test_soak_churndos_with_dht_pattern () =
  (* 30 windows of the combined network with alternating growth/shrink and
     a late attacker; Lemma 18's invariants must hold in every window. *)
  let s = Prng.Stream.of_seed 0x50AB3L in
  let net = Core.Churndos_network.create ~rng:(Prng.Stream.split s) ~n:2048 () in
  let cube = Topology.Hypercube.create 12 in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s)
      ~lateness:(2 * Core.Churndos_network.period net)
      ~frac:0.2
  in
  let blocked_for_round ~round:_ ~group_of ~n =
    Core.Dos_adversary.observe adv ~epoch:(Core.Churndos_network.epoch net)
      (fun () -> Array.copy group_of);
    Core.Dos_adversary.blocked_set adv ~cube ~n
  in
  for w = 1 to 30 do
    let cur = Core.Churndos_network.n net in
    let joins, leave_frac =
      match w mod 3 with
      | 0 -> (cur / 2, 0.0) (* burst growth *)
      | 1 -> (0, 0.33) (* burst shrink *)
      | _ -> (cur / 10, 0.1) (* steady churn *)
    in
    let r = Core.Churndos_network.run_window net ~blocked_for_round ~joins ~leave_frac in
    Alcotest.(check bool)
      (Printf.sprintf "window %d reconfigured" w)
      true r.Core.Churndos_network.reconfigured;
    Alcotest.(check bool)
      (Printf.sprintf "window %d dim spread <= 2" w)
      true
      (r.Core.Churndos_network.dim_spread <= 2);
    Alcotest.(check int)
      (Printf.sprintf "window %d Eq(1)" w)
      0 r.Core.Churndos_network.eq1_violations;
    Alcotest.(check int)
      (Printf.sprintf "window %d connected" w)
      0 r.Core.Churndos_network.disconnected_rounds
  done

let test_soak_dht_reshuffles () =
  (* Write a working set, then alternate reshuffles with mixed read/write
     batches under light blocking for 20 rounds of reconfiguration. *)
  let s = Prng.Stream.of_seed 0x50AB4L in
  let dht = Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s) ~n:1024 () in
  let n = Apps.Robust_dht.n dht in
  let blocked = Array.make n false in
  for key = 0 to 199 do
    ignore
      (Apps.Robust_dht.execute dht ~blocked
         (Apps.Robust_dht.Write (key, Printf.sprintf "gen0-%d" key)))
  done;
  for gen = 1 to 20 do
    Apps.Robust_dht.reshuffle dht;
    let blocked = Array.make n false in
    Array.iter
      (fun v -> blocked.(v) <- true)
      (Prng.Stream.sample_distinct s n ~k:(n / 16));
    (* overwrite a rotating slice, read the rest *)
    for key = 0 to 199 do
      if key mod 20 = gen mod 20 then
        ignore
          (Apps.Robust_dht.execute dht ~blocked
             (Apps.Robust_dht.Write (key, Printf.sprintf "gen%d-%d" gen key)))
    done;
    let ok = ref 0 in
    for key = 0 to 199 do
      let r = Apps.Robust_dht.execute dht ~blocked (Apps.Robust_dht.Read key) in
      match r.Apps.Robust_dht.value with Some _ -> incr ok | None -> ()
    done;
    Alcotest.(check int) (Printf.sprintf "gen %d: all keys readable" gen) 200 !ok
  done

let () =
  Alcotest.run "integration"
    [
      ( "soak",
        [
          Alcotest.test_case "40 epochs of churn" `Slow test_soak_churn_network;
          Alcotest.test_case "12 DoS windows + anonymizer" `Slow
            test_soak_dos_with_anonymizer;
          Alcotest.test_case "30 churn+DoS windows" `Slow
            test_soak_churndos_with_dht_pattern;
          Alcotest.test_case "20 DHT reshuffle generations" `Slow
            test_soak_dht_reshuffles;
        ] );
    ]

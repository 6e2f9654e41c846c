(* Tests for the Section 5 DoS-resistant network and the DoS adversaries:
   group structure, availability semantics, reconfiguration, the lateness
   crossover of Theorem 6, and group-size concentration (Lemma 16). *)

let make_net ?(c = 2.0) ?(seed = 0xD05L) n =
  let s = Prng.Stream.of_seed seed in
  Core.Dos_network.create ~c ~rng:(Prng.Stream.split s) ~n ()

let no_blocking n = Array.make n false

(* ---------- structure ---------- *)

let test_structure () =
  let net = make_net 4096 in
  let d = Core.Dos_network.dimension net in
  Alcotest.(check int) "supernode count = 2^d" (1 lsl d)
    (Core.Dos_network.supernode_count net);
  Alcotest.(check bool) "2^d <= n / (c log n)" true
    (float_of_int (1 lsl d) <= 4096.0 /. (2.0 *. 12.0));
  Alcotest.(check int) "period = 4 ceil(log2 d) + 4"
    ((4 * Core.Params.log2i_ceil d) + 4)
    (Core.Dos_network.period net)

let test_groups_partition () =
  let net = make_net 1024 in
  let seen = Array.make 1024 0 in
  for x = 0 to Core.Dos_network.supernode_count net - 1 do
    Array.iter
      (fun v -> seen.(v) <- seen.(v) + 1)
      (Core.Dos_network.group_members net x)
  done;
  Array.iteri
    (fun v c ->
      Alcotest.(check int) (Printf.sprintf "node %d in exactly one group" v) 1 c)
    seen;
  let group_of = Core.Dos_network.group_of net in
  Array.iteri
    (fun v x ->
      Alcotest.(check bool) "membership consistent" true
        (Array.mem v (Core.Dos_network.group_members net x)))
    group_of

let test_members_sorted () =
  let net = make_net 1024 in
  for x = 0 to Core.Dos_network.supernode_count net - 1 do
    let m = Core.Dos_network.group_members net x in
    for i = 0 to Array.length m - 2 do
      Alcotest.(check bool) "sorted by id" true (m.(i) < m.(i + 1))
    done
  done

let test_group_sizes_concentrate () =
  (* Lemma 16: group sizes within (1 +- delta) n/N for reasonable delta. *)
  let net = make_net 8192 in
  let supernodes = Core.Dos_network.supernode_count net in
  let mean = float_of_int 8192 /. float_of_int supernodes in
  for x = 0 to supernodes - 1 do
    let size = float_of_int (Array.length (Core.Dos_network.group_members net x)) in
    Alcotest.(check bool)
      (Printf.sprintf "size %.0f within (1 +- 0.75) * %.1f" size mean)
      true
      (size > 0.25 *. mean && size < 1.75 *. mean)
  done

(* ---------- rounds and windows ---------- *)

let test_unattacked_rounds () =
  let net = make_net 1024 in
  let n = Core.Dos_network.n net in
  for _ = 1 to Core.Dos_network.period net do
    let r = Core.Dos_network.run_round net ~blocked:(no_blocking n) in
    Alcotest.(check bool) "connected" true r.Core.Dos_network.connected;
    Alcotest.(check int) "no starvation" 0 r.Core.Dos_network.starved_groups
  done;
  Alcotest.(check int) "one window done" 1 (Core.Dos_network.windows_completed net);
  match Core.Dos_network.last_window net with
  | None -> Alcotest.fail "no window report"
  | Some w ->
      Alcotest.(check bool) "reconfigured" true w.Core.Dos_network.reconfigured;
      Alcotest.(check int) "no failed rounds" 0 w.Core.Dos_network.failed_rounds;
      Alcotest.(check bool) "sane sizes" true
        (w.Core.Dos_network.min_group_size > 0
        && w.Core.Dos_network.max_group_size < 1024)

let test_reconfiguration_changes_groups () =
  let net = make_net 1024 in
  let n = Core.Dos_network.n net in
  let before = Core.Dos_network.group_of net in
  for _ = 1 to Core.Dos_network.period net do
    ignore (Core.Dos_network.run_round net ~blocked:(no_blocking n))
  done;
  let after = Core.Dos_network.group_of net in
  let moved = ref 0 in
  Array.iteri (fun v x -> if after.(v) <> x then incr moved) before;
  (* with N >> 1 supernodes, almost every node moves *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d nodes moved" !moved n)
    true
    (!moved > n / 2)

let test_starved_window_not_reconfigured () =
  let net = make_net 1024 in
  let n = Core.Dos_network.n net in
  let before = Core.Dos_network.group_of net in
  (* kill one entire group for the whole window *)
  let victims = Core.Dos_network.group_members net 0 in
  let blocked = Array.make n false in
  Array.iter (fun v -> blocked.(v) <- true) victims;
  for _ = 1 to Core.Dos_network.period net do
    ignore (Core.Dos_network.run_round net ~blocked)
  done;
  (match Core.Dos_network.last_window net with
  | None -> Alcotest.fail "no window report"
  | Some w ->
      Alcotest.(check bool) "window failed" false w.Core.Dos_network.reconfigured;
      Alcotest.(check bool) "failed rounds recorded" true
        (w.Core.Dos_network.failed_rounds > 0));
  Alcotest.(check (array int)) "assignment kept on failure" before
    (Core.Dos_network.group_of net)

let test_availability_needs_two_rounds () =
  (* A node blocked in round i is unavailable in rounds i and i+1. *)
  let net = make_net 1024 in
  let n = Core.Dos_network.n net in
  let victims = Core.Dos_network.group_members net 0 in
  let blocked = Array.make n false in
  Array.iter (fun v -> blocked.(v) <- true) victims;
  (* round 0: group 0 blocked -> unavailable *)
  let r0 = Core.Dos_network.run_round net ~blocked in
  Alcotest.(check bool) "starved while blocked" true
    (r0.Core.Dos_network.starved_groups >= 1);
  (* round 1: unblocked again, but members were blocked in round 0, so the
     group is still unavailable this round *)
  let r1 = Core.Dos_network.run_round net ~blocked:(no_blocking n) in
  Alcotest.(check bool) "still starved one round after unblocking" true
    (r1.Core.Dos_network.starved_groups >= 1);
  (* round 2: fully available again *)
  let r2 = Core.Dos_network.run_round net ~blocked:(no_blocking n) in
  Alcotest.(check int) "recovered" 0 r2.Core.Dos_network.starved_groups

(* ---------- connectivity semantics ---------- *)

let test_disconnect_detection () =
  (* Block everything except one group whose supernode's neighbors are all
     unoccupied: the survivors form one clique, still connected; then keep
     two far-apart groups alive: disconnected. *)
  let net = make_net 1024 in
  let n = Core.Dos_network.n net in
  let d = Core.Dos_network.dimension net in
  let blocked = Array.make n true in
  Array.iter (fun v -> blocked.(v) <- false) (Core.Dos_network.group_members net 0);
  let r = Core.Dos_network.run_round net ~blocked in
  Alcotest.(check bool) "single surviving group is connected" true
    r.Core.Dos_network.connected;
  (* two groups at Hamming distance >= 2: supernodes 0 and 3 (binary 11) *)
  Alcotest.(check bool) "need d >= 2" true (d >= 2);
  let blocked2 = Array.make n true in
  Array.iter (fun v -> blocked2.(v) <- false) (Core.Dos_network.group_members net 0);
  Array.iter (fun v -> blocked2.(v) <- false) (Core.Dos_network.group_members net 3);
  let r2 = Core.Dos_network.run_round net ~blocked:blocked2 in
  Alcotest.(check bool) "far groups disconnected" false r2.Core.Dos_network.connected

let test_connectivity_matches_brute_force () =
  (* The round report's connectivity comes from the occupied-supernode
     quotient; cross-check against the explicit node-level graph (group
     cliques + complete bipartite between neighboring groups) on random
     blocking patterns. *)
  let net = make_net 512 in
  let n = Core.Dos_network.n net in
  let d = Core.Dos_network.dimension net in
  let s = Prng.Stream.of_seed 77L in
  for _trial = 1 to 12 do
    let blocked = Array.make n false in
    let k = Prng.Stream.int s (n / 2) in
    Array.iter
      (fun v -> blocked.(v) <- true)
      (Prng.Stream.sample_distinct s n ~k);
    (* blocking whole groups sometimes, to hit disconnected cases *)
    if Prng.Stream.bool s then begin
      let x = Prng.Stream.int s (Core.Dos_network.supernode_count net) in
      Array.iter (fun v -> blocked.(v) <- true) (Core.Dos_network.group_members net x)
    end;
    let group_of = Core.Dos_network.group_of net in
    (* build the explicit topology restricted to non-blocked nodes *)
    let g = Topology.Graph.create ~n in
    for u = 0 to n - 1 do
      if not blocked.(u) then
        for v = u + 1 to n - 1 do
          if not blocked.(v) then begin
            let gu = group_of.(u) and gv = group_of.(v) in
            if
              gu = gv
              || Testutil.hamming gu gv = 1
                 && gu < 1 lsl d && gv < 1 lsl d
            then Topology.Graph.add_edge g u v
          end
        done
    done;
    let brute =
      Topology.Bfs.is_connected ~alive:(fun v -> not blocked.(v)) g
    in
    let quotient = (Core.Dos_network.run_round net ~blocked).Core.Dos_network.connected in
    (* reset availability history so the next trial is independent *)
    ignore (Core.Dos_network.run_round net ~blocked:(Array.make n false));
    Alcotest.(check bool) "quotient matches brute force" brute quotient
  done

(* ---------- adversaries ---------- *)

let test_adversary_budget () =
  let s = Prng.Stream.of_seed 9L in
  let cube = Topology.Hypercube.create 8 in
  List.iter
    (fun strat ->
      let adv =
        Core.Dos_adversary.create strat ~rng:(Prng.Stream.split s) ~lateness:0
          ~frac:0.25
      in
      Core.Dos_adversary.observe adv
        ~group_of:(Array.init 1024 (fun v -> v mod 256));
      let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n:1024 in
      let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked in
      Alcotest.(check int)
        (Core.Dos_adversary.to_string strat ^ " spends exactly its budget")
        256 count)
    Core.Dos_adversary.all

let test_adversary_frac_guard () =
  let s = Prng.Stream.of_seed 9L in
  Alcotest.check_raises "frac >= 1 rejected"
    (Invalid_argument "Dos_adversary.create: frac out of [0, 1)") (fun () ->
      ignore
        (Core.Dos_adversary.create Core.Dos_adversary.Random_blocking ~rng:s
           ~lateness:0 ~frac:1.0))

let test_group_kill_0late_starves () =
  let net = make_net 2048 in
  let n = Core.Dos_network.n net in
  let s = Prng.Stream.of_seed 10L in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s) ~lateness:0 ~frac:0.25
  in
  let starved = ref 0 in
  for _ = 1 to 2 * Core.Dos_network.period net do
    Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if r.Core.Dos_network.starved_groups > 0 then incr starved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "0-late group-kill starves (%d rounds)" !starved)
    true
    (!starved > Core.Dos_network.period net)

let test_group_kill_late_harmless () =
  let net = make_net 2048 in
  let n = Core.Dos_network.n net in
  let p = Core.Dos_network.period net in
  let s = Prng.Stream.of_seed 10L in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s) ~lateness:p ~frac:0.25
  in
  let starved = ref 0 and disconnected = ref 0 in
  for _ = 1 to 6 * p do
    Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if r.Core.Dos_network.starved_groups > 0 then incr starved;
    if not r.Core.Dos_network.connected then incr disconnected
  done;
  Alcotest.(check int) "no starvation when period-late" 0 !starved;
  Alcotest.(check int) "never disconnected" 0 !disconnected

let test_isolate_0late_disconnects () =
  let net = make_net 2048 in
  let n = Core.Dos_network.n net in
  let s = Prng.Stream.of_seed 11L in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Isolate_node
      ~rng:(Prng.Stream.split s) ~lateness:0 ~frac:0.3
  in
  let disconnected = ref 0 in
  for _ = 1 to Core.Dos_network.period net do
    Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if not r.Core.Dos_network.connected then incr disconnected
  done;
  Alcotest.(check bool)
    (Printf.sprintf "0-late isolate disconnects (%d rounds)" !disconnected)
    true
    (!disconnected > 0)

let test_random_blocking_harmless () =
  let net = make_net 2048 in
  let n = Core.Dos_network.n net in
  let s = Prng.Stream.of_seed 12L in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Random_blocking
      ~rng:(Prng.Stream.split s) ~lateness:0 ~frac:0.25
  in
  let bad = ref 0 in
  for _ = 1 to 4 * Core.Dos_network.period net do
    Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
    let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
    let r = Core.Dos_network.run_round net ~blocked in
    if r.Core.Dos_network.starved_groups > 0 || not r.Core.Dos_network.connected
    then incr bad
  done;
  Alcotest.(check int) "random blocking never hurts" 0 !bad

(* ---------- message-level backend ---------- *)

let test_message_level_clean_window () =
  let s = Prng.Stream.of_seed 0xA11L in
  let net =
    Core.Dos_network.create ~c:2.0 ~backend:Core.Dos_network.Message_level
      ~rng:(Prng.Stream.split s) ~n:1024 ()
  in
  let n = Core.Dos_network.n net in
  let before = Core.Dos_network.group_of net in
  for _ = 1 to Core.Dos_network.period net do
    let r = Core.Dos_network.run_round net ~blocked:(Array.make n false) in
    Alcotest.(check int) "no starvation" 0 r.Core.Dos_network.starved_groups
  done;
  (match Core.Dos_network.last_window net with
  | None -> Alcotest.fail "no window"
  | Some w ->
      Alcotest.(check bool) "reconfigured from real messages" true
        w.Core.Dos_network.reconfigured;
      Alcotest.(check bool) "sane group sizes" true
        (w.Core.Dos_network.min_group_size > 0));
  let after = Core.Dos_network.group_of net in
  let moved = ref 0 in
  Array.iteri (fun v x -> if after.(v) <> x then incr moved) before;
  Alcotest.(check bool) "groups reshuffled" true (!moved > n / 2)

let test_message_level_survives_blocking () =
  let s = Prng.Stream.of_seed 0xA12L in
  let net =
    Core.Dos_network.create ~c:2.0 ~backend:Core.Dos_network.Message_level
      ~rng:(Prng.Stream.split s) ~n:1024 ()
  in
  let n = Core.Dos_network.n net in
  let ok_windows = ref 0 in
  for _ = 1 to 3 * Core.Dos_network.period net do
    let blocked = Array.make n false in
    Array.iter
      (fun v -> blocked.(v) <- true)
      (Prng.Stream.sample_distinct s n ~k:(n / 4));
    ignore (Core.Dos_network.run_round net ~blocked)
  done;
  (* all three windows reconfigured despite 25% blocking per round *)
  (match Core.Dos_network.last_window net with
  | Some w when w.Core.Dos_network.reconfigured -> incr ok_windows
  | _ -> ());
  Alcotest.(check int) "windows completed" 3
    (Core.Dos_network.windows_completed net);
  Alcotest.(check bool) "last window reconfigured" true (!ok_windows = 1)

let test_message_level_starved_window_fails () =
  let s = Prng.Stream.of_seed 0xA13L in
  let net =
    Core.Dos_network.create ~c:2.0 ~backend:Core.Dos_network.Message_level
      ~rng:(Prng.Stream.split s) ~n:512 ()
  in
  let n = Core.Dos_network.n net in
  let before = Core.Dos_network.group_of net in
  let victims = Core.Dos_network.group_members net 0 in
  for r = 0 to Core.Dos_network.period net - 1 do
    let blocked = Array.make n false in
    if r < 3 then Array.iter (fun v -> blocked.(v) <- true) victims;
    ignore (Core.Dos_network.run_round net ~blocked)
  done;
  (match Core.Dos_network.last_window net with
  | None -> Alcotest.fail "no window"
  | Some w ->
      Alcotest.(check bool) "window failed (state lost for real)" false
        w.Core.Dos_network.reconfigured);
  Alcotest.(check (array int)) "assignment kept" before
    (Core.Dos_network.group_of net)

let test_message_level_assignment_uniform () =
  (* The new assignment drawn from real message exchanges must concentrate
     like the canonical one (Lemma 16). *)
  let s = Prng.Stream.of_seed 0xA14L in
  let net =
    Core.Dos_network.create ~c:2.0 ~backend:Core.Dos_network.Message_level
      ~rng:(Prng.Stream.split s) ~n:2048 ()
  in
  let n = Core.Dos_network.n net in
  for _ = 1 to Core.Dos_network.period net do
    ignore (Core.Dos_network.run_round net ~blocked:(Array.make n false))
  done;
  let supernodes = Core.Dos_network.supernode_count net in
  let sizes =
    Array.init supernodes (fun x ->
        Array.length (Core.Dos_network.group_members net x))
  in
  let mean = float_of_int n /. float_of_int supernodes in
  Array.iter
    (fun size ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d within (0.25, 1.75) x mean %.1f" size mean)
        true
        (float_of_int size > 0.25 *. mean && float_of_int size < 1.75 *. mean))
    sizes

(* ---------- properties ---------- *)

let qcheck_reconfigured_groups_still_partition =
  QCheck.Test.make ~name:"groups remain a partition across windows" ~count:5
    QCheck.(int64)
    (fun seed ->
      let s = Prng.Stream.of_seed seed in
      let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n:512 () in
      let n = Core.Dos_network.n net in
      for _ = 1 to 2 * Core.Dos_network.period net do
        ignore (Core.Dos_network.run_round net ~blocked:(Array.make n false))
      done;
      let seen = Array.make n 0 in
      for x = 0 to Core.Dos_network.supernode_count net - 1 do
        Array.iter
          (fun v -> seen.(v) <- seen.(v) + 1)
          (Core.Dos_network.group_members net x)
      done;
      Array.for_all (fun c -> c = 1) seen)

let qcheck_blocked_set_within_budget =
  QCheck.Test.make ~name:"adversary never exceeds its budget" ~count:50
    QCheck.(triple int64 (int_range 0 2) (float_range 0.0 0.45))
    (fun (seed, strat_i, frac) ->
      let s = Prng.Stream.of_seed seed in
      let cube = Topology.Hypercube.create 6 in
      let adv =
        Core.Dos_adversary.create
          (List.nth Core.Dos_adversary.all strat_i)
          ~rng:(Prng.Stream.split s) ~lateness:0 ~frac
      in
      let n = 512 in
      Core.Dos_adversary.observe adv ~group_of:(Array.init n (fun v -> v mod 64));
      let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
      let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked in
      count <= int_of_float (Float.round (frac *. float_of_int n)))

let () =
  Alcotest.run "core-dos"
    [
      ( "structure",
        [
          Alcotest.test_case "dimensions" `Quick test_structure;
          Alcotest.test_case "groups partition" `Quick test_groups_partition;
          Alcotest.test_case "members sorted" `Quick test_members_sorted;
          Alcotest.test_case "sizes concentrate (Lemma 16)" `Quick
            test_group_sizes_concentrate;
        ] );
      ( "windows",
        [
          Alcotest.test_case "unattacked window" `Quick test_unattacked_rounds;
          Alcotest.test_case "reconfiguration reshuffles" `Quick
            test_reconfiguration_changes_groups;
          Alcotest.test_case "starved window aborted" `Quick
            test_starved_window_not_reconfigured;
          Alcotest.test_case "two-round availability" `Quick
            test_availability_needs_two_rounds;
          Alcotest.test_case "disconnect detection" `Quick
            test_disconnect_detection;
          Alcotest.test_case "connectivity matches brute force" `Slow
            test_connectivity_matches_brute_force;
        ] );
      ( "message-level-backend",
        [
          Alcotest.test_case "clean window" `Quick
            test_message_level_clean_window;
          Alcotest.test_case "survives 25% blocking" `Slow
            test_message_level_survives_blocking;
          Alcotest.test_case "starved window fails" `Quick
            test_message_level_starved_window_fails;
          Alcotest.test_case "assignment concentrates" `Quick
            test_message_level_assignment_uniform;
        ] );
      ( "adversaries",
        [
          Alcotest.test_case "budget exact" `Quick test_adversary_budget;
          Alcotest.test_case "frac guard" `Quick test_adversary_frac_guard;
          Alcotest.test_case "0-late group-kill starves" `Slow
            test_group_kill_0late_starves;
          Alcotest.test_case "period-late group-kill harmless (Thm 6)" `Slow
            test_group_kill_late_harmless;
          Alcotest.test_case "0-late isolate disconnects" `Slow
            test_isolate_0late_disconnects;
          Alcotest.test_case "random blocking harmless" `Slow
            test_random_blocking_harmless;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_reconfigured_groups_still_partition;
            qcheck_blocked_set_within_budget;
          ] );
    ]

(* Tests for Section 6: the split/merge supernode tree and the combined
   churn+DoS network (Lemma 18 / Theorem 7 invariants). *)

module Sm = Core.Split_merge

let lbl bits dim = { Sm.bits; dim }

(* ---------- labels ---------- *)

let test_label_children_parent () =
  let x = lbl 0b101 3 in
  Alcotest.(check bool) "child0" true (Sm.child0 x = lbl 0b0101 4);
  Alcotest.(check bool) "child1" true (Sm.child1 x = lbl 0b1101 4);
  Alcotest.(check bool) "parent" true (Sm.parent (Sm.child0 x) = x);
  Alcotest.(check bool) "parent of child1" true (Sm.parent (Sm.child1 x) = x);
  Alcotest.(check bool) "sibling" true
    (Sm.sibling (Sm.child0 x) = Sm.child1 x)

let test_label_prefix () =
  Alcotest.(check bool) "prefix" true (Sm.is_prefix (lbl 0b01 2) (lbl 0b1101 4));
  Alcotest.(check bool) "not prefix" false
    (Sm.is_prefix (lbl 0b10 2) (lbl 0b1101 4));
  Alcotest.(check bool) "self prefix" true (Sm.is_prefix (lbl 0b1 1) (lbl 0b1 1))

let test_label_connected () =
  (* Equal-dimension labels: standard hypercube adjacency. *)
  Alcotest.(check bool) "hamming 1" true (Sm.connected (lbl 0b000 3) (lbl 0b001 3));
  Alcotest.(check bool) "hamming 2" false (Sm.connected (lbl 0b000 3) (lbl 0b011 3));
  (* Mixed dimensions: compare on the shorter prefix. *)
  Alcotest.(check bool) "short vs long" true
    (Sm.connected (lbl 0b01 2) (lbl 0b1101 4) = Sm.connected (lbl 0b1101 4) (lbl 0b01 2));
  Alcotest.(check bool) "prefix-different-in-one" true
    (Sm.connected (lbl 0b00 2) (lbl 0b1101 4)
    = (Testutil.hamming 0b00 (0b1101 land 0b11) = 1))

let test_label_guards () =
  Alcotest.check_raises "root has no parent"
    (Invalid_argument "Split_merge.parent: root") (fun () ->
      ignore (Sm.parent (lbl 0 0)));
  Alcotest.check_raises "bits exceed dim"
    (Invalid_argument "Split_merge.child0: bits exceed dim") (fun () ->
      ignore (Sm.child0 (lbl 0b100 2)))

(* ---------- leaf tree ---------- *)

let tree_of dims_bits =
  let t = Sm.create () in
  List.iter (fun (bits, dim, v) -> Sm.add_leaf t (lbl bits dim) v) dims_bits;
  t

let test_tree_add_conflicts () =
  let t = tree_of [ (0b0, 1, "a") ] in
  Alcotest.check_raises "prefix conflict"
    (Invalid_argument "Split_merge.add_leaf: conflicting leaf") (fun () ->
      Sm.add_leaf t (lbl 0b00 2) "b");
  Alcotest.check_raises "equal conflict"
    (Invalid_argument "Split_merge.add_leaf: conflicting leaf") (fun () ->
      Sm.add_leaf t (lbl 0b0 1) "b")

let test_tree_split_merge_roundtrip () =
  let t = tree_of [ (0b0, 1, 10); (0b1, 1, 20) ] in
  Sm.split t (lbl 0b0 1) (fun v -> (v + 1, v + 2));
  Alcotest.(check int) "three leaves" 3 (Sm.leaf_count t);
  Alcotest.(check (option int)) "child0 value" (Some 11) (Sm.find t (lbl 0b00 2));
  Alcotest.(check (option int)) "child1 value" (Some 12) (Sm.find t (lbl 0b10 2));
  Alcotest.(check bool) "covers" true (Sm.covers t);
  Sm.merge t (lbl 0b00 2) ( + );
  Alcotest.(check int) "back to two" 2 (Sm.leaf_count t);
  Alcotest.(check (option int)) "merged value" (Some 23) (Sm.find t (lbl 0b0 1));
  Alcotest.(check bool) "still covers" true (Sm.covers t)

let test_tree_force_merge () =
  (* Merging x whose sibling was split forces the sibling subtree together
     first, exactly the paper's rule. *)
  let t = tree_of [ (0b0, 1, 1); (0b1, 1, 2) ] in
  Sm.split t (lbl 0b1 1) (fun v -> (v, v + 10));
  Sm.split t (lbl 0b01 2) (fun v -> (v, v + 100));
  (* leaves now: 0 (d1), 11 (d2), 001(d3 bits 0b001? careful) ... *)
  Alcotest.(check int) "four leaves" 4 (Sm.leaf_count t);
  (* merge leaf 0 (dim 1): sibling is the whole subtree under 1 *)
  Sm.merge t (lbl 0b0 1) ( + );
  Alcotest.(check int) "one leaf at root" 1 (Sm.leaf_count t);
  Alcotest.(check (option int)) "all values combined" (Some (1 + 2 + 12 + 102))
    (Sm.find t (lbl 0 0))

let test_tree_sample_weights () =
  (* leaves: 0 (dim 1, prob 1/2), 01 (dim 2, prob 1/4), 11 (dim 2, 1/4) *)
  let t = tree_of [ (0b0, 1, ()); (0b01, 2, ()); (0b11, 2, ()) ] in
  Alcotest.(check bool) "covers" true (Sm.covers t);
  let r = Prng.Stream.of_seed 77L in
  let c0 = ref 0 and c01 = ref 0 and c11 = ref 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let l = Sm.sample t r in
    if l = lbl 0b0 1 then incr c0
    else if l = lbl 0b01 2 then incr c01
    else if l = lbl 0b11 2 then incr c11
    else Alcotest.fail "sampled a non-leaf"
  done;
  let near x target =
    abs_float ((float_of_int x /. float_of_int trials) -. target) < 0.02
  in
  Alcotest.(check bool) "P(dim1 leaf) = 1/2" true (near !c0 0.5);
  Alcotest.(check bool) "P(01) = 1/4" true (near !c01 0.25);
  Alcotest.(check bool) "P(11) = 1/4" true (near !c11 0.25)

let test_tree_covers_detects_gap () =
  let t = tree_of [ (0b0, 1, ()) ] in
  Alcotest.(check bool) "half the namespace missing" false (Sm.covers t)

let test_tree_min_max_dim () =
  let t = tree_of [ (0b0, 1, ()); (0b01, 2, ()); (0b11, 2, ()) ] in
  Alcotest.(check int) "min dim" 1 (Sm.min_dim t);
  Alcotest.(check int) "max dim" 2 (Sm.max_dim t)

(* ---------- weighted sampling primitive (Section 6) ---------- *)

let test_weighted_primitive_distribution () =
  (* Leaves of dimensions 1, 2, 2 must be sampled with probabilities
     1/2, 1/4, 1/4 by the virtual-cube construction. *)
  let t = tree_of [ (0b0, 1, ()); (0b01, 2, ()); (0b11, 2, ()) ] in
  let counts = Array.make 3 0 in
  List.iter
    (fun seed ->
      let rw =
        Core.Rapid_weighted.run ~c:4.0 ~rng:(Prng.Stream.of_seed seed) t
      in
      Alcotest.(check int) "virtual dim = max dim" 2
        rw.Core.Rapid_weighted.virtual_dim;
      Array.iter
        (Array.iter (fun leaf -> counts.(leaf) <- counts.(leaf) + 1))
        rw.Core.Rapid_weighted.pools)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  (* dense order is (dim, bits): leaf 0 = dim-1 leaf *)
  let p0 = float_of_int counts.(0) /. total in
  let p1 = float_of_int counts.(1) /. total in
  let p2 = float_of_int counts.(2) /. total in
  Alcotest.(check bool) (Printf.sprintf "P(dim1) = %.3f ~ 0.5" p0) true
    (abs_float (p0 -. 0.5) < 0.05);
  Alcotest.(check bool) (Printf.sprintf "P(01) = %.3f ~ 0.25" p1) true
    (abs_float (p1 -. 0.25) < 0.05);
  Alcotest.(check bool) (Printf.sprintf "P(11) = %.3f ~ 0.25" p2) true
    (abs_float (p2 -. 0.25) < 0.05)

let test_weighted_primitive_uniform_tree () =
  (* On a uniform-dimension tree the weighted primitive degenerates to the
     plain uniform one. *)
  let t = Sm.create () in
  for bits = 0 to 15 do
    Sm.add_leaf t (lbl bits 4) ()
  done;
  let counts = Array.make 16 0 in
  List.iter
    (fun seed ->
      let rw = Core.Rapid_weighted.run ~c:4.0 ~rng:(Prng.Stream.of_seed seed) t in
      Array.iter
        (Array.iter (fun leaf -> counts.(leaf) <- counts.(leaf) + 1))
        rw.Core.Rapid_weighted.pools)
    [ 11L; 12L; 13L ];
  Alcotest.(check bool) "uniform over equal-dim leaves" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_weighted_primitive_guards () =
  let t = tree_of [ (0b0, 1, ()) ] in
  Alcotest.check_raises "non-covering tree rejected"
    (Invalid_argument "Rapid_weighted.run: tree does not cover the namespace")
    (fun () ->
      ignore (Core.Rapid_weighted.run ~rng:(Prng.Stream.of_seed 1L) t))

(* ---------- churn+DoS network ---------- *)

let no_attack ~round:_ ~group_of ~n:_ = Array.make (Array.length group_of) false

let make_net ?(seed = 0xCD05L) n =
  let s = Prng.Stream.of_seed seed in
  Core.Churndos_network.create ~rng:(Prng.Stream.split s) ~n ()

let check_report ?(allow_starve = false) r =
  if not allow_starve then begin
    Alcotest.(check int) "no starvation" 0 r.Core.Churndos_network.starved_rounds;
    Alcotest.(check bool) "reconfigured" true r.Core.Churndos_network.reconfigured
  end;
  Alcotest.(check int) "never disconnected" 0
    r.Core.Churndos_network.disconnected_rounds;
  (* Lemma 18 invariants *)
  Alcotest.(check bool)
    (Printf.sprintf "dim spread %d <= 2" r.Core.Churndos_network.dim_spread)
    true
    (r.Core.Churndos_network.dim_spread <= 2);
  Alcotest.(check int) "Equation (1) holds" 0 r.Core.Churndos_network.eq1_violations

let test_initial_invariants () =
  let net = make_net 4096 in
  let dims = Core.Churndos_network.dims net in
  let mn = Array.fold_left min max_int dims
  and mx = Array.fold_left max 0 dims in
  Alcotest.(check bool) "spread <= 2" true (mx - mn <= 2);
  (* Lemma 18's absolute bounds: 0.5 log n < d(x) < log n + 2 *)
  Alcotest.(check bool) "0.5 log n < min dim" true (float_of_int mn > 0.5 *. 12.0 /. 2.0);
  Alcotest.(check bool) "max dim < log n + 2" true (mx < 14)

let test_steady_windows () =
  let net = make_net 2048 in
  for _ = 1 to 4 do
    let r =
      Core.Churndos_network.run_window net ~blocked_for_round:no_attack ~joins:0
        ~leave_frac:0.0
    in
    check_report r;
    Alcotest.(check int) "size stable" 2048 r.Core.Churndos_network.n_after
  done

let test_growth_triggers_splits () =
  let net = make_net 1024 in
  let sn_before = Core.Churndos_network.supernode_count net in
  let total_splits = ref 0 in
  for _ = 1 to 4 do
    let n = Core.Churndos_network.n net in
    let r =
      Core.Churndos_network.run_window net ~blocked_for_round:no_attack
        ~joins:n ~leave_frac:0.0
    in
    check_report r;
    total_splits := !total_splits + r.Core.Churndos_network.splits
  done;
  Alcotest.(check bool) "16x growth" true (Core.Churndos_network.n net >= 16_000);
  Alcotest.(check bool) "supernodes multiplied" true
    (Core.Churndos_network.supernode_count net > 4 * sn_before);
  Alcotest.(check bool) "splits happened" true (!total_splits > 0)

let test_shrink_triggers_merges () =
  let net = make_net 8192 in
  let sn_before = Core.Churndos_network.supernode_count net in
  let total_merges = ref 0 in
  for _ = 1 to 4 do
    let r =
      Core.Churndos_network.run_window net ~blocked_for_round:no_attack ~joins:0
        ~leave_frac:0.5
    in
    check_report r;
    total_merges := !total_merges + r.Core.Churndos_network.merges
  done;
  Alcotest.(check bool) "shrunk" true (Core.Churndos_network.n net < 1024);
  Alcotest.(check bool) "supernodes reduced" true
    (Core.Churndos_network.supernode_count net < sn_before / 4);
  Alcotest.(check bool) "merges happened" true (!total_merges > 0)

let test_combined_attack_and_churn () =
  let s = Prng.Stream.of_seed 0xABCL in
  let net = Core.Churndos_network.create ~rng:(Prng.Stream.split s) ~n:4096 () in
  let cube = Topology.Hypercube.create 10 in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s)
      ~lateness:(2 * Core.Churndos_network.period net)
      ~frac:0.25
  in
  let blocked_for_round ~round:_ ~group_of ~n =
    Core.Dos_adversary.observe adv ~group_of;
    Core.Dos_adversary.blocked_set adv ~cube ~n
  in
  let grow = ref true in
  for _ = 1 to 6 do
    let n = Core.Churndos_network.n net in
    let joins = if !grow then n / 3 else 0 in
    let leave_frac = if !grow then 0.0 else 0.25 in
    grow := not !grow;
    let r =
      Core.Churndos_network.run_window net ~blocked_for_round ~joins ~leave_frac
    in
    check_report r
  done

let test_starved_window_reported () =
  let net = make_net 1024 in
  (* block everyone in group 0 every round *)
  let blocked_for_round ~round:_ ~group_of ~n =
    let blocked = Array.make n false in
    Array.iteri (fun v g -> if g = 0 then blocked.(v) <- true) group_of;
    blocked
  in
  let r =
    Core.Churndos_network.run_window net ~blocked_for_round ~joins:50
      ~leave_frac:0.1
  in
  Alcotest.(check bool) "starvation detected" true
    (r.Core.Churndos_network.starved_rounds > 0);
  Alcotest.(check bool) "window not reconfigured" false
    r.Core.Churndos_network.reconfigured;
  Alcotest.(check int) "joiners not integrated" 0 r.Core.Churndos_network.joined;
  Alcotest.(check bool) "leavers still left" true
    (r.Core.Churndos_network.left > 0)

(* ---------- properties ---------- *)

let qcheck_tree_split_preserves_cover =
  QCheck.Test.make ~name:"random splits/merges preserve coverage" ~count:50
    QCheck.(pair int64 (int_range 1 40))
    (fun (seed, ops) ->
      let r = Prng.Stream.of_seed seed in
      let t = Sm.create () in
      Sm.add_leaf t (lbl 0 1) 0;
      Sm.add_leaf t (lbl 1 1) 0;
      for _ = 1 to ops do
        let ls = Sm.leaves t in
        let l, _ = List.nth ls (Prng.Stream.int r (List.length ls)) in
        if Prng.Stream.bool r && l.Sm.dim < 20 then
          Sm.split t l (fun v -> (v, v))
        else if l.Sm.dim > 1 then Sm.merge t l ( + )
      done;
      Sm.covers t)

let qcheck_windows_keep_lemma18 =
  QCheck.Test.make ~name:"windows maintain Lemma 18 invariants" ~count:5
    QCheck.(pair int64 (int_range 512 2048))
    (fun (seed, n) ->
      let s = Prng.Stream.of_seed seed in
      let net = Core.Churndos_network.create ~rng:(Prng.Stream.split s) ~n () in
      let ok = ref true in
      for i = 0 to 2 do
        let joins = if i mod 2 = 0 then Core.Churndos_network.n net / 4 else 0 in
        let leave_frac = if i mod 2 = 0 then 0.0 else 0.2 in
        let r =
          Core.Churndos_network.run_window net
            ~blocked_for_round:(fun ~round:_ ~group_of ~n:_ ->
              Array.make (Array.length group_of) false)
            ~joins ~leave_frac
        in
        if
          r.Core.Churndos_network.dim_spread > 2
          || r.Core.Churndos_network.eq1_violations > 0
          || not r.Core.Churndos_network.reconfigured
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "core-churndos"
    [
      ( "labels",
        [
          Alcotest.test_case "children/parent" `Quick test_label_children_parent;
          Alcotest.test_case "prefix" `Quick test_label_prefix;
          Alcotest.test_case "connected" `Quick test_label_connected;
          Alcotest.test_case "guards" `Quick test_label_guards;
        ] );
      ( "leaf-tree",
        [
          Alcotest.test_case "conflicts" `Quick test_tree_add_conflicts;
          Alcotest.test_case "split/merge roundtrip" `Quick
            test_tree_split_merge_roundtrip;
          Alcotest.test_case "force merge" `Quick test_tree_force_merge;
          Alcotest.test_case "sample weights" `Slow test_tree_sample_weights;
          Alcotest.test_case "coverage gap" `Quick test_tree_covers_detects_gap;
          Alcotest.test_case "min/max dim" `Quick test_tree_min_max_dim;
        ] );
      ( "weighted-primitive",
        [
          Alcotest.test_case "2^-d distribution" `Slow
            test_weighted_primitive_distribution;
          Alcotest.test_case "uniform tree degenerates" `Slow
            test_weighted_primitive_uniform_tree;
          Alcotest.test_case "guards" `Quick test_weighted_primitive_guards;
        ] );
      ( "network",
        [
          Alcotest.test_case "initial invariants" `Quick test_initial_invariants;
          Alcotest.test_case "steady windows" `Quick test_steady_windows;
          Alcotest.test_case "growth splits" `Slow test_growth_triggers_splits;
          Alcotest.test_case "shrink merges" `Slow test_shrink_triggers_merges;
          Alcotest.test_case "combined attack + churn (Thm 7)" `Slow
            test_combined_attack_and_churn;
          Alcotest.test_case "starved window reported" `Quick
            test_starved_window_reported;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_tree_split_preserves_cover; qcheck_windows_keep_lemma18 ] );
    ]

(* Tests for the graph/topology substrate. *)

let rng () = Testutil.rng ()

let degree g v = Array.length (Topology.Graph.neighbors g v)
let has_edge g v w = Array.mem w (Topology.Graph.neighbors g v)
let edge_count g = Array.length (Topology.Graph.edges g)

(* The graph joining each node [v] to every entry of [neighbors v]. *)
let graph_of_neighbors ~n neighbors =
  let g = Topology.Graph.create ~n in
  for v = 0 to n - 1 do
    Array.iter (fun w -> if v < w then Topology.Graph.add_edge g v w) (neighbors v)
  done;
  g

(* Exact diameter by all-pairs BFS, the oracle for the double sweep;
   [-1] when disconnected. *)
let diameter_exact g =
  let ecc v =
    Array.fold_left
      (fun e d -> if e < 0 || d < 0 then -1 else max e d)
      0
      (Topology.Bfs.distances g v)
  in
  let rec go v diam =
    if v = Topology.Graph.n g then diam
    else
      let e = ecc v in
      if e < 0 then -1 else go (v + 1) (max diam e)
  in
  go 0 0

(* ---------- Intvec ---------- *)

let test_intvec_basics () =
  let v = Topology.Intvec.create () in
  Alcotest.(check int) "empty" 0 (Topology.Intvec.length v);
  for i = 0 to 99 do
    Topology.Intvec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Topology.Intvec.length v);
  Alcotest.(check int) "get" 84 (Topology.Intvec.get v 42);
  let sum = Topology.Intvec.fold (fun a x -> a + x) 0 v in
  Alcotest.(check bool) "fold sums" true (sum > 0);
  Topology.Intvec.clear v;
  Alcotest.(check int) "clear" 0 (Topology.Intvec.length v)

let test_intvec_bounds () =
  let v = Topology.Intvec.create () in
  Topology.Intvec.push v 1;
  Topology.Intvec.push v 2;
  Alcotest.check_raises "get oob" (Invalid_argument "Intvec.get: out of bounds")
    (fun () -> ignore (Topology.Intvec.get v 2));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Intvec.get: out of bounds") (fun () ->
      ignore (Topology.Intvec.get v (-1)))

(* ---------- Graph ---------- *)

let test_graph_basics () =
  let g = Topology.Graph.create ~n:4 in
  Topology.Graph.add_edge g 0 1;
  Topology.Graph.add_edge g 1 2;
  Topology.Graph.add_edge g 0 1;
  (* parallel edge *)
  Alcotest.(check int) "n" 4 (Topology.Graph.n g);
  Alcotest.(check int) "edges" 3 (edge_count g);
  Alcotest.(check int) "deg 1 with parallel" 3 (degree g 1);
  Alcotest.(check int) "deg isolated" 0 (degree g 3);
  Alcotest.(check bool) "has edge" true (has_edge g 0 1);
  Alcotest.(check bool) "no edge" false (has_edge g 0 3)

let test_graph_guards () =
  let g = Topology.Graph.create ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Topology.Graph.add_edge g 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.add_edge: node out of range") (fun () ->
      Topology.Graph.add_edge g 0 5)

let test_graph_regular () =
  let g = Topology.Graph.create ~n:3 in
  Topology.Graph.add_edge g 0 1;
  Topology.Graph.add_edge g 1 2;
  Topology.Graph.add_edge g 2 0;
  Alcotest.(check (option int)) "2-regular" (Some 2) (Topology.Graph.is_regular g);
  Topology.Graph.add_edge g 0 1;
  Alcotest.(check (option int)) "irregular" None (Topology.Graph.is_regular g)

let test_graph_edges_roundtrip () =
  let edges = [| (0, 1); (1, 2); (0, 2); (0, 1) |] in
  let g = Topology.Graph.create ~n:3 in
  Array.iter (fun (a, b) -> Topology.Graph.add_edge g a b) edges;
  let back = Topology.Graph.edges g in
  Alcotest.(check int) "edge multiset size" 4 (Array.length back);
  let norm a = List.sort compare (Array.to_list a) in
  Alcotest.(check bool) "same multiset" true (norm edges = norm back)

(* ---------- Union-find ---------- *)

let test_union_find () =
  let u = Union_find.create 6 in
  Alcotest.(check int) "initial components" 6 (Union_find.component_count u);
  Union_find.union u 0 1;
  Union_find.union u 1 2;
  Union_find.union u 3 4;
  Alcotest.(check int) "after unions" 3 (Union_find.component_count u);
  Alcotest.(check bool) "same" true (Union_find.same u 0 2);
  Alcotest.(check bool) "not same" false (Union_find.same u 2 3);
  Alcotest.(check int) "among subset" 2
    (Union_find.component_count_among u [| 0; 2; 3 |])

(* ---------- BFS ---------- *)

let path_graph n =
  let g = Topology.Graph.create ~n in
  for i = 0 to n - 2 do
    Topology.Graph.add_edge g i (i + 1)
  done;
  g

let test_bfs_distances () =
  let g = path_graph 5 in
  let d = Topology.Bfs.distances g 0 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4 |] d

let test_bfs_distances_masked () =
  let g = path_graph 5 in
  let d = Topology.Bfs.distances ~alive:(fun v -> v <> 2) g 0 in
  Alcotest.(check int) "cut off" (-1) d.(3);
  Alcotest.(check int) "before cut" 1 d.(1)

let test_bfs_connectivity () =
  let g = path_graph 5 in
  Alcotest.(check bool) "path connected" true (Topology.Bfs.is_connected g);
  Alcotest.(check bool) "masked disconnected" false
    (Topology.Bfs.is_connected ~alive:(fun v -> v <> 2) g);
  Alcotest.(check bool) "vacuous" true
    (Topology.Bfs.is_connected ~alive:(fun _ -> false) g)

let test_bfs_components () =
  let g = path_graph 6 in
  let comps = Topology.Bfs.components ~alive:(fun v -> v <> 2) g in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check int) "largest first" 3 (Array.length (List.hd comps))

let test_bfs_diameter () =
  let g = path_graph 7 in
  Alcotest.(check int) "path diameter" 6 (diameter_exact g);
  Alcotest.(check int) "double sweep exact on a path" 6
    (Topology.Bfs.diameter_double_sweep g (rng ()));
  let disconnected = Topology.Graph.create ~n:3 in
  Topology.Graph.add_edge disconnected 0 1;
  Alcotest.(check int) "disconnected" (-1) (diameter_exact disconnected)

let test_bfs_union_find_agree () =
  (* Random graphs: BFS component count equals union-find component count. *)
  let r = rng () in
  for _ = 1 to 20 do
    let n = 2 + Prng.Stream.int r 50 in
    let g = Topology.Graph.create ~n in
    let u = Union_find.create n in
    for _ = 1 to Prng.Stream.int r (3 * n) do
      let a = Prng.Stream.int r n and b = Prng.Stream.int r n in
      if a <> b then begin
        Topology.Graph.add_edge g a b;
        Union_find.union u a b
      end
    done;
    Alcotest.(check int) "component counts agree"
      (Union_find.component_count u)
      (List.length (Topology.Bfs.components g))
  done

(* ---------- Hypercube ---------- *)

let test_hypercube_basics () =
  let h = Topology.Hypercube.create 4 in
  Alcotest.(check int) "node count" 16 (Topology.Hypercube.node_count h);
  Alcotest.(check int) "flip" 0b1010 (Topology.Hypercube.flip h 0b0010 3);
  Alcotest.(check int) "hamming" 2 (Testutil.hamming 0b1010 0b0110);
  let ns = Topology.Hypercube.neighbors h 0 in
  Alcotest.(check int) "degree" 4 (Array.length ns);
  Array.iter
    (fun w -> Alcotest.(check int) "neighbors at distance 1" 1
        (Testutil.hamming 0 w))
    ns

let test_hypercube_graph () =
  let h = Topology.Hypercube.create 5 in
  let g =
    graph_of_neighbors
      ~n:(Topology.Hypercube.node_count h)
      (Topology.Hypercube.neighbors h)
  in
  Alcotest.(check (option int)) "5-regular" (Some 5) (Topology.Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Topology.Bfs.is_connected g);
  Alcotest.(check int) "diameter = d" 5 (diameter_exact g)

let test_hypercube_walk_uniform () =
  (* The d-round walk of Section 2.3 ends at a uniform node.  Each step
     stays with probability 1/2, else crosses dimension [dim]. *)
  let h = Topology.Hypercube.create 6 in
  let r = rng () in
  let walk_step v ~dim =
    if Prng.Stream.bool r then v else Topology.Hypercube.flip h v dim
  in
  let counts = Array.make 64 0 in
  for _ = 1 to 64_000 do
    let v = ref 0 in
    for dim = 0 to 5 do
      v := walk_step !v ~dim
    done;
    counts.(!v) <- counts.(!v) + 1
  done;
  Alcotest.(check bool) "endpoint uniform" true
    (Stats.Chi_square.test_uniform counts > 0.001)

(* ---------- k-ary hypercube ---------- *)

module Kary = Topology.Kary_hypercube

let kary_coords c v = Array.init (Kary.d c) (Kary.coord c v)

(* Digit [i] of a label is coordinate [i]. *)
let kary_of_coords c coords =
  Array.fold_right (fun x v -> (v * Kary.k c) + x) coords 0

(* The neighbours of Definition 1: every label that differs in exactly
   one coordinate. *)
let kary_neighbors c v =
  Array.concat
    (List.init (Kary.d c) (fun i ->
         let own = Kary.coord c v i in
         Array.of_list
           (List.filter_map
              (fun x -> if x = own then None else Some (Kary.with_coord c v i x))
              (List.init (Kary.k c) Fun.id))))

let kary_distance c a b =
  List.length
    (List.filter (fun i -> Kary.coord c a i <> Kary.coord c b i)
       (List.init (Kary.d c) Fun.id))

let test_kary_coords_roundtrip () =
  let c = Kary.create ~k:3 ~d:4 in
  for v = 0 to Kary.node_count c - 1 do
    Alcotest.(check int) "roundtrip" v (kary_of_coords c (kary_coords c v))
  done

let test_kary_structure () =
  let c = Kary.create ~k:3 ~d:3 in
  Alcotest.(check int) "node count" 27 (Kary.node_count c);
  Alcotest.(check int) "degree" 6 (Array.length (kary_neighbors c 0));
  let g = graph_of_neighbors ~n:(Kary.node_count c) (kary_neighbors c) in
  Alcotest.(check (option int)) "regular" (Some 6) (Topology.Graph.is_regular g);
  Alcotest.(check bool) "connected" true (Topology.Bfs.is_connected g);
  Alcotest.(check int) "diameter = d" 3 (diameter_exact g)

let test_kary_neighbors_distance () =
  let c = Kary.create ~k:4 ~d:3 in
  let v = 37 in
  Array.iter
    (fun w ->
      Alcotest.(check int) "neighbor at distance 1" 1 (kary_distance c v w))
    (kary_neighbors c v)

let test_kary_with_coord () =
  let c = Kary.create ~k:5 ~d:3 in
  let v = kary_of_coords c [| 1; 2; 3 |] in
  let w = Kary.with_coord c v 1 4 in
  Alcotest.(check (array int)) "coordinate replaced" [| 1; 4; 3 |]
    (kary_coords c w)

(* ---------- H-graphs ---------- *)

let test_hamilton_cycle_check () =
  Alcotest.(check bool) "valid cycle" true
    (Topology.Hgraph.is_hamilton_cycle [| 1; 2; 3; 4; 0 |]);
  Alcotest.(check bool) "two small cycles" false
    (Topology.Hgraph.is_hamilton_cycle [| 1; 0; 3; 2 |]);
  Alcotest.(check bool) "fixed point" false
    (Topology.Hgraph.is_hamilton_cycle [| 0; 2; 1 |])

let test_hgraph_random_valid () =
  let g = Topology.Hgraph.random (rng ()) ~n:50 ~d:8 in
  Alcotest.(check int) "n" 50 (Topology.Hgraph.n g);
  Alcotest.(check int) "degree" 8 (Topology.Hgraph.degree g);
  Alcotest.(check int) "cycles" 4 (Topology.Hgraph.cycles g);
  for c = 0 to 3 do
    Alcotest.(check bool) "each cycle hamiltonian" true
      (Topology.Hgraph.is_hamilton_cycle (Topology.Hgraph.succ_array g ~cycle:c))
  done

let test_hgraph_succ_pred_inverse () =
  let g = Topology.Hgraph.random (rng ()) ~n:30 ~d:6 in
  for c = 0 to 2 do
    for v = 0 to 29 do
      let s = Topology.Hgraph.succ g ~cycle:c v in
      Alcotest.(check int) "pred of succ" v (Topology.Hgraph.pred g ~cycle:c s)
    done
  done

let test_hgraph_neighbor_edges () =
  (* Edge 2c is the successor in cycle c, edge 2c + 1 the predecessor; the
     rapid sampler's Phase 1 tabulates them in this order. *)
  let g = Topology.Hgraph.random (rng ()) ~n:30 ~d:6 in
  for v = 0 to 29 do
    for c = 0 to 2 do
      Alcotest.(check int) "even edge" (Topology.Hgraph.succ g ~cycle:c v)
        (Topology.Hgraph.neighbor g v (2 * c));
      Alcotest.(check int) "odd edge" (Topology.Hgraph.pred g ~cycle:c v)
        (Topology.Hgraph.neighbor g v ((2 * c) + 1))
    done
  done;
  List.iter
    (fun e ->
      Alcotest.check_raises "bad edge" (Invalid_argument "Hgraph: bad edge")
        (fun () -> ignore (Topology.Hgraph.neighbor g 0 e)))
    [ -1; 6 ]

let test_hgraph_to_graph_regular_connected () =
  let g = Topology.Hgraph.random (rng ()) ~n:100 ~d:8 in
  let gr = Topology.Hgraph.to_graph g in
  Alcotest.(check (option int)) "8-regular" (Some 8) (Topology.Graph.is_regular gr);
  Alcotest.(check bool) "connected" true (Topology.Bfs.is_connected gr)

let test_hgraph_of_cycles_validation () =
  Alcotest.check_raises "invalid cycle rejected"
    (Invalid_argument "Hgraph.of_cycles: not a Hamilton cycle") (fun () ->
      ignore (Topology.Hgraph.of_cycles [| [| 1; 0; 3; 2 |] |]))

let test_hgraph_expander () =
  (* Corollary 1: random H-graphs have |lambda_2| <= 2 sqrt(d), w.h.p. *)
  let g = Topology.Hgraph.random (rng ()) ~n:400 ~d:8 in
  let gr = Topology.Hgraph.to_graph g in
  let l2 = Topology.Spectral.second_eigenvalue gr (rng ()) in
  Alcotest.(check bool) "spectral expansion" true
    (l2 <= 2.0 *. sqrt 8.0 *. 1.05)

let test_hgraph_diameter_logarithmic () =
  let g = Topology.Hgraph.random (rng ()) ~n:512 ~d:8 in
  let gr = Topology.Hgraph.to_graph g in
  let diam = Topology.Bfs.diameter_double_sweep gr (rng ()) in
  (* log2 512 = 9; an expander of degree 8 has diameter close to log_7 n;
     allow generous slack but catch polynomially long diameters. *)
  Alcotest.(check bool) "diameter O(log n)" true (diam > 0 && diam <= 12)

let test_hgraph_random_cycle_uniform () =
  (* The generator must draw each directed Hamilton cycle uniformly: on 4
     nodes there are 3! = 6, distinguishable by the tour from node 0. *)
  let r = rng () in
  let counts = Hashtbl.create 6 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let g = Topology.Hgraph.random r ~n:4 ~d:2 in
    let succ = Topology.Hgraph.succ_array g ~cycle:0 in
    let key = (100 * succ.(0)) + (10 * succ.(succ.(0))) + succ.(succ.(succ.(0))) in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all 6 cycles drawn" 6 (Hashtbl.length counts);
  let observed = Array.of_seq (Seq.map snd (Hashtbl.to_seq counts)) in
  Alcotest.(check bool) "uniform over cycles" true
    (Stats.Chi_square.test_uniform observed > 0.001)

let test_hgraph_random_neighbor_uniform () =
  (* random_neighbor must weight each incident edge (cycle x direction)
     equally — the regularity the stationary distribution relies on. *)
  let r = rng () in
  let g = Topology.Hgraph.random r ~n:50 ~d:8 in
  let v = 7 in
  let counts = Hashtbl.create 8 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let w = Topology.Hgraph.random_neighbor g r v in
    Hashtbl.replace counts w
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
  done;
  (* each of the d = 8 edge slots has probability 1/8; parallel edges pool *)
  let expected_slots = Hashtbl.create 8 in
  for c = 0 to Topology.Hgraph.cycles g - 1 do
    List.iter
      (fun w ->
        Hashtbl.replace expected_slots w
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected_slots w)))
      [ Topology.Hgraph.succ g ~cycle:c v; Topology.Hgraph.pred g ~cycle:c v ]
  done;
  Hashtbl.iter
    (fun w slots ->
      let got = Option.value ~default:0 (Hashtbl.find_opt counts w) in
      let expected = float_of_int (trials * slots) /. 8.0 in
      Alcotest.(check bool)
        (Printf.sprintf "neighbor %d frequency %d ~ %.0f" w got expected)
        true
        (abs_float (float_of_int got -. expected) < 5.0 *. sqrt expected))
    expected_slots

(* ---------- Spectral ---------- *)

let test_spectral_cycle () =
  (* The n-cycle's eigenvalues are 2 cos(2 pi k / n).  Use an odd n so the
     graph is not bipartite; the largest non-principal magnitude is then
     |2 cos(2 pi floor(n/2) / n)| = 2 cos(pi / n). *)
  let n = 41 in
  let g = Topology.Graph.create ~n in
  for i = 0 to n - 1 do
    Topology.Graph.add_edge g i ((i + 1) mod n)
  done;
  let l2 = Topology.Spectral.second_eigenvalue ~iterations:500 g (rng ()) in
  let expected = 2.0 *. cos (Float.pi /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "lambda2 %.4f vs %.4f" l2 expected)
    true
    (abs_float (l2 -. expected) < 0.02)

let test_spectral_requires_regular () =
  let g = path_graph 5 in
  Alcotest.check_raises "irregular rejected"
    (Invalid_argument "Spectral.second_eigenvalue: graph not regular") (fun () ->
      ignore (Topology.Spectral.second_eigenvalue g (rng ())))

(* ---------- properties ---------- *)

let qcheck_graph_model =
  (* Model-based fuzz: Graph vs a reference adjacency-matrix multigraph. *)
  QCheck.Test.make ~name:"Graph agrees with an adjacency-matrix model" ~count:100
    QCheck.(pair int64 (int_range 2 15))
    (fun (seed, n) ->
      let r = Prng.Stream.of_seed seed in
      let g = Topology.Graph.create ~n in
      let adj = Array.make_matrix n n 0 in
      for _ = 1 to 4 * n do
        let a = Prng.Stream.int r n and b = Prng.Stream.int r n in
        if a <> b then begin
          Topology.Graph.add_edge g a b;
          adj.(a).(b) <- adj.(a).(b) + 1;
          adj.(b).(a) <- adj.(b).(a) + 1
        end
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let deg = Array.fold_left ( + ) 0 adj.(v) in
        if degree g v <> deg then ok := false;
        for w = 0 to n - 1 do
          if has_edge g v w <> (adj.(v).(w) > 0) then ok := false
        done;
        (* neighbor multiset matches the matrix row *)
        let row = Array.make n 0 in
        Topology.Graph.iter_neighbors g v (fun w -> row.(w) <- row.(w) + 1);
        if row <> adj.(v) then ok := false
      done;
      !ok)

let qcheck_intvec_model =
  (* Model-based fuzz: an Intvec driven by a random op sequence must always
     agree with a plain list reference. *)
  QCheck.Test.make ~name:"Intvec agrees with a list model" ~count:200
    QCheck.(pair int64 (list (int_range 0 3)))
    (fun (seed, ops) ->
      let r = Prng.Stream.of_seed seed in
      let v = Topology.Intvec.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              let x = Prng.Stream.int r 1000 in
              Topology.Intvec.push v x;
              model := !model @ [ x ]
          | 1 ->
              if Prng.Stream.int r 8 = 0 then begin
                Topology.Intvec.clear v;
                model := []
              end
          | 2 ->
              if !model <> [] then begin
                let i = Prng.Stream.int r (List.length !model) in
                if Topology.Intvec.get v i <> List.nth !model i then ok := false
              end
          | _ ->
              if Topology.Intvec.length v <> List.length !model then ok := false;
              if Topology.Intvec.to_array v <> Array.of_list !model then
                ok := false)
        ops;
      !ok && Topology.Intvec.to_array v = Array.of_list !model)

let qcheck_hypercube_flip_involution =
  QCheck.Test.make ~name:"hypercube flip is an involution" ~count:300
    QCheck.(pair (int_range 1 16) (int_range 0 1_000_000))
    (fun (d, vraw) ->
      let h = Topology.Hypercube.create d in
      let v = vraw mod Topology.Hypercube.node_count h in
      let i = vraw mod d in
      Topology.Hypercube.flip h (Topology.Hypercube.flip h v i) i = v)

let qcheck_random_cycle_hamiltonian =
  QCheck.Test.make ~name:"random H-graph cycles are Hamiltonian" ~count:50
    QCheck.(pair int64 (int_range 3 200))
    (fun (seed, n) ->
      let g = Topology.Hgraph.random (Prng.Stream.of_seed seed) ~n ~d:4 in
      Topology.Hgraph.is_hamilton_cycle (Topology.Hgraph.succ_array g ~cycle:0)
      && Topology.Hgraph.is_hamilton_cycle (Topology.Hgraph.succ_array g ~cycle:1))

let qcheck_kary_coords_roundtrip =
  QCheck.Test.make ~name:"k-ary coords roundtrip" ~count:300
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 0 10_000))
    (fun (k, d, vraw) ->
      let c = Kary.create ~k ~d in
      let v = vraw mod Kary.node_count c in
      kary_of_coords c (kary_coords c v) = v)

let () =
  Alcotest.run "topology"
    [
      ( "intvec",
        [
          Alcotest.test_case "basics" `Quick test_intvec_basics;
          Alcotest.test_case "bounds" `Quick test_intvec_bounds;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "guards" `Quick test_graph_guards;
          Alcotest.test_case "regular" `Quick test_graph_regular;
          Alcotest.test_case "edges roundtrip" `Quick test_graph_edges_roundtrip;
        ] );
      ("union-find", [ Alcotest.test_case "basics" `Quick test_union_find ]);
      ( "bfs",
        [
          Alcotest.test_case "distances" `Quick test_bfs_distances;
          Alcotest.test_case "masked distances" `Quick test_bfs_distances_masked;
          Alcotest.test_case "connectivity" `Quick test_bfs_connectivity;
          Alcotest.test_case "components" `Quick test_bfs_components;
          Alcotest.test_case "diameter" `Quick test_bfs_diameter;
          Alcotest.test_case "agrees with union-find" `Quick
            test_bfs_union_find_agree;
        ] );
      ( "hypercube",
        [
          Alcotest.test_case "basics" `Quick test_hypercube_basics;
          Alcotest.test_case "graph structure" `Quick test_hypercube_graph;
          Alcotest.test_case "walk uniform" `Slow test_hypercube_walk_uniform;
        ] );
      ( "kary-hypercube",
        [
          Alcotest.test_case "coords roundtrip" `Quick test_kary_coords_roundtrip;
          Alcotest.test_case "structure" `Quick test_kary_structure;
          Alcotest.test_case "neighbor distances" `Quick
            test_kary_neighbors_distance;
          Alcotest.test_case "with_coord" `Quick test_kary_with_coord;
        ] );
      ( "hgraph",
        [
          Alcotest.test_case "hamilton check" `Quick test_hamilton_cycle_check;
          Alcotest.test_case "random valid" `Quick test_hgraph_random_valid;
          Alcotest.test_case "succ/pred inverse" `Quick
            test_hgraph_succ_pred_inverse;
          Alcotest.test_case "neighbor edges" `Quick test_hgraph_neighbor_edges;
          Alcotest.test_case "regular + connected" `Quick
            test_hgraph_to_graph_regular_connected;
          Alcotest.test_case "of_cycles validation" `Quick
            test_hgraph_of_cycles_validation;
          Alcotest.test_case "expander (Cor. 1)" `Slow test_hgraph_expander;
          Alcotest.test_case "diameter O(log n)" `Slow
            test_hgraph_diameter_logarithmic;
          Alcotest.test_case "generator uniform over cycles" `Slow
            test_hgraph_random_cycle_uniform;
          Alcotest.test_case "random_neighbor edge-uniform" `Slow
            test_hgraph_random_neighbor_uniform;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "cycle eigenvalue" `Slow test_spectral_cycle;
          Alcotest.test_case "regularity guard" `Quick
            test_spectral_requires_regular;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_graph_model;
            qcheck_intvec_model;
            qcheck_hypercube_flip_involution;
            qcheck_random_cycle_hamiltonian;
            qcheck_kary_coords_roundtrip;
          ] );
    ]

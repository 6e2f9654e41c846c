(* Tests for the k-ary generalization of the rapid sampling primitive
   (Section 7.2's "straightforward extension" of Algorithm 2). *)

let rng () = Testutil.rng ()

let test_rounds () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let r = Core.Rapid_kary.run ~rng:(rng ()) cube in
  Alcotest.(check int) "2 ceil(log2 d) rounds" 4 r.Core.Sampling_result.rounds;
  Alcotest.(check int) "walk length d" 4 r.Core.Sampling_result.walk_length

let test_uniform () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let n = Topology.Kary_hypercube.node_count cube in
  let counts = Array.make n 0 in
  List.iter
    (fun seed ->
      let r = Core.Rapid_kary.run ~rng:(Prng.Stream.of_seed seed) cube in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    [ 1L; 2L; 3L ];
  Alcotest.(check bool) "uniform over k^d nodes" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_uniform_odd_arity_odd_dim () =
  (* k = 3 and d = 5 (not a power of two): the left-leaning segment tree
     and non-binary digits together. *)
  let cube = Topology.Kary_hypercube.create ~k:3 ~d:5 in
  let n = Topology.Kary_hypercube.node_count cube in
  let counts = Array.make n 0 in
  List.iter
    (fun seed ->
      let r =
        Core.Rapid_kary.run ~c:3.0 ~rng:(Prng.Stream.of_seed seed) cube
      in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    [ 4L; 5L; 6L ];
  Alcotest.(check bool) "uniform for k=3, d=5" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_samples_in_range () =
  let cube = Topology.Kary_hypercube.create ~k:5 ~d:3 in
  let n = Topology.Kary_hypercube.node_count cube in
  let r = Core.Rapid_kary.run ~rng:(rng ()) cube in
  Array.iter
    (Array.iter (fun s ->
         Alcotest.(check bool) "in range" true (s >= 0 && s < n)))
    r.Core.Sampling_result.samples

let test_plain_baseline () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
  let n = Topology.Kary_hypercube.node_count cube in
  let p = Core.Rapid_kary.run_plain ~k:10 ~rng:(rng ()) cube in
  Alcotest.(check int) "d + 1 rounds" 5 p.Core.Sampling_result.rounds;
  let counts = Array.make n 0 in
  Array.iter
    (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
    p.Core.Sampling_result.samples;
  Alcotest.(check bool) "token walk uniform" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_separation () =
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:6 in
  let fast = Core.Rapid_kary.run ~rng:(rng ()) cube in
  let slow = Core.Rapid_kary.run_plain ~k:2 ~rng:(rng ()) cube in
  Alcotest.(check bool) "fewer rounds" true
    (fast.Core.Sampling_result.rounds < slow.Core.Sampling_result.rounds)

let test_dht_reshuffle_balanced () =
  (* Robust_dht.reshuffle now scatters via the k-ary primitive; the new
     group sizes must look binomial, not clumped. *)
  let s = rng () in
  let dht = Apps.Robust_dht.create ~k:4 ~rng:(Prng.Stream.split s) ~n:4096 () in
  Apps.Robust_dht.reshuffle dht;
  let sup = Apps.Robust_dht.supernode_count dht in
  let sizes = Array.make sup 0 in
  Array.iter
    (fun g -> sizes.(g) <- sizes.(g) + 1)
    (Apps.Robust_dht.group_of dht);
  let mean = 4096.0 /. float_of_int sup in
  let var =
    Array.fold_left (fun a c -> a +. ((float_of_int c -. mean) ** 2.0)) 0.0 sizes
    /. float_of_int sup
  in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f within 2.5x of mean %.1f" var mean)
    true
    (var < 2.5 *. mean);
  Alcotest.(check int) "nobody unassigned" 4096 (Array.fold_left ( + ) 0 sizes)

let qcheck_kary_uniform_marginals =
  QCheck.Test.make ~name:"k-ary samples stay in range for random (k, d)"
    ~count:20
    QCheck.(triple int64 (int_range 2 5) (int_range 2 5))
    (fun (seed, k, d) ->
      let cube = Topology.Kary_hypercube.create ~k ~d in
      let n = Topology.Kary_hypercube.node_count cube in
      let r = Core.Rapid_kary.run ~c:1.0 ~rng:(Prng.Stream.of_seed seed) cube in
      Array.for_all
        (Array.for_all (fun v -> v >= 0 && v < n))
        r.Core.Sampling_result.samples)

(* Reference Algorithm 2: the per-node Multiset formulation the flat
   sampler in Core.Rapid_kary replaced, kept as its oracle.  [redraw u j]
   is the Phase-1 draw; requesters are served in arrival order from
   (u, s) lists and replies install through a second set of buckets. *)
let reference_alg2 ~c ~rng ~n ~d ~redraw =
  let module Ms = Testutil.Multiset in
  let module Metrics = Simnet.Metrics in
  let iters = Core.Params.iterations_hypercube ~d in
  let schedule = Core.Params.schedule_hypercube ~eps:0.5 ~c ~n ~iters in
  let bits =
    Simnet.Msg_size.ids_msg ~id_bits:(Simnet.Msg_size.id_bits n) ~count:1
    + Simnet.Msg_size.id_bits (max 2 d)
  in
  let metrics = Metrics.create ~n in
  let message ~src ~dst =
    Metrics.on_send metrics ~node:src ~bits;
    Metrics.on_recv metrics ~node:dst ~bits
  in
  let underflows = ref 0 in
  let m =
    Array.init n (fun u ->
        Array.init d (fun j ->
            let b = Ms.create () in
            for _ = 1 to schedule.(0) do
              Ms.add b (redraw u j)
            done;
            b))
  in
  let requesters = Array.make n [] in
  let fresh = Array.init n (fun _ -> Array.init d (fun _ -> Ms.create ())) in
  let lefts half =
    List.filter (fun s -> s mod (2 * half) = 0 && s + half < d) (List.init d Fun.id)
  in
  for i = 1 to iters do
    let half = 1 lsl (i - 1) in
    for u = 0 to n - 1 do
      List.iter
        (fun s ->
          for _ = 1 to schedule.(i) do
            match Ms.extract_random m.(u).(s) rng with
            | None -> incr underflows
            | Some v ->
                message ~src:u ~dst:v;
                requesters.(v) <- (u, s) :: requesters.(v)
          done)
        (lefts half)
    done;
    ignore (Metrics.finish_round metrics);
    for v = 0 to n - 1 do
      List.iter
        (fun (u, s) ->
          match Ms.extract_random m.(v).(s + half) rng with
          | None -> incr underflows
          | Some w ->
              message ~src:v ~dst:u;
              Ms.add fresh.(u).(s) w)
        (List.rev requesters.(v));
      requesters.(v) <- []
    done;
    ignore (Metrics.finish_round metrics);
    for u = 0 to n - 1 do
      List.iter
        (fun s ->
          Ms.clear m.(u).(s);
          Ms.iter (Ms.add m.(u).(s)) fresh.(u).(s);
          Ms.clear fresh.(u).(s);
          Ms.clear m.(u).(s + half))
        (lefts half)
    done
  done;
  let samples =
    Array.map
      (fun buckets ->
        let a = Ms.to_array buckets.(0) in
        Prng.Stream.shuffle_in_place rng a;
        a)
      m
  in
  {
    Core.Sampling_result.samples;
    rounds = 2 * iters;
    walk_length = d;
    schedule;
    underflows = !underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

(* Both samplers on one seed: equal results and equal rng positions
   afterwards, i.e. the same draws. *)
let agree ~seed sample reference =
  let rng_a = Prng.Stream.of_seed seed and rng_b = Prng.Stream.of_seed seed in
  let a = sample rng_a and b = reference rng_b in
  a = b && Prng.Stream.bits64 rng_a = Prng.Stream.bits64 rng_b

let kary_agrees ~seed ~k ~d ~c =
  let cube = Topology.Kary_hypercube.create ~k ~d in
  agree ~seed
    (fun rng -> Core.Rapid_kary.run ~c ~rng cube)
    (fun rng ->
      reference_alg2 ~c ~rng ~n:(Topology.Kary_hypercube.node_count cube) ~d
        ~redraw:(fun u j ->
          Topology.Kary_hypercube.with_coord cube u j (Prng.Stream.int rng k)))

let hypercube_agrees ~seed ~d ~c =
  let cube = Topology.Hypercube.create d in
  agree ~seed
    (fun rng -> Core.Rapid_hypercube.run ~c ~rng cube)
    (fun rng ->
      reference_alg2 ~c ~rng ~n:(Topology.Hypercube.node_count cube) ~d
        ~redraw:(fun u j ->
          if Prng.Stream.bool rng then Topology.Hypercube.flip cube u j else u))

let test_allocated_bytes () =
  (* The robust DHT's supernode cube (k = 4, d = 6, 4096 nodes): ids and
     bucket indices (below n·d = 24576) fit in 16 bits, so the buffers take
     2·(n·d·m_0 + max_i n·(left segments of iteration i)·m_i) bytes.  The
     bound is Alg. 1's, 2·B·(m_0 + m_1) bytes plus 1 MB, over the B = n·d
     buckets: every iteration's requests fit in n·d·m_1 slots, and the rest
     of the 1 MB covers the samples and the counters.  A 4-byte plane
     alone (4·n·d·m_0), or a 4-byte request buffer beside the 2-byte
     plane, exceeds it. *)
  let k = 4 and d = 6 in
  let cube = Topology.Kary_hypercube.create ~k ~d in
  let n = Topology.Kary_hypercube.node_count cube in
  let r, bytes =
    Testutil.allocated_bytes (fun () -> Core.Rapid_kary.run ~rng:(rng ()) cube)
  in
  let s = r.Core.Sampling_result.schedule in
  let bound = (2 * n * d * (s.(0) + s.(1))) + (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes <= %d (m_0 = %d, m_1 = %d)" bytes bound s.(0)
       s.(1))
    true
    (bytes <= float_of_int bound)

let test_oracle_underflow () =
  (* c = 1 at k = 2, d = 7 underflows, so the oracle covers the path that
     records an underflow without consuming a draw. *)
  let cube = Topology.Kary_hypercube.create ~k:2 ~d:7 in
  let r = Core.Rapid_kary.run ~c:1.0 ~rng:(Prng.Stream.of_seed 3L) cube in
  Alcotest.(check bool) "underflows occur" true
    (r.Core.Sampling_result.underflows > 0);
  Alcotest.(check bool) "k-ary matches the reference" true
    (kary_agrees ~seed:3L ~k:2 ~d:7 ~c:1.0);
  Alcotest.(check bool) "binary matches the reference" true
    (hypercube_agrees ~seed:3L ~d:7 ~c:1.0)

(* d is capped so that k^d <= 2^10 (k = 2 keeps d <= 7), which keeps a
   case under a tenth of a second. *)
let qcheck_sampler_matches_reference =
  QCheck.Test.make ~name:"flat Alg. 2 equals the Multiset reference"
    ~count:40
    QCheck.(
      quad int64 (int_range 2 5) (int_range 1 7)
        (oneofl [ 1.0; 2.0; 6.8 ]))
    (fun (seed, k, d, c) ->
      let max_d = [| 0; 0; 7; 6; 5; 4 |].(k) in
      kary_agrees ~seed ~k ~d:(min d max_d) ~c && hypercube_agrees ~seed ~d ~c)

let () =
  Alcotest.run "core-kary"
    [
      ( "rapid-kary",
        [
          Alcotest.test_case "rounds" `Quick test_rounds;
          Alcotest.test_case "uniform" `Slow test_uniform;
          Alcotest.test_case "odd arity and dim" `Slow
            test_uniform_odd_arity_odd_dim;
          Alcotest.test_case "samples in range" `Quick test_samples_in_range;
          Alcotest.test_case "plain baseline" `Quick test_plain_baseline;
          Alcotest.test_case "round separation" `Quick test_separation;
          Alcotest.test_case "dht reshuffle balanced" `Quick
            test_dht_reshuffle_balanced;
          Alcotest.test_case "oracle covers underflow" `Quick
            test_oracle_underflow;
          Alcotest.test_case "allocated bytes at k = 4, d = 6" `Quick
            test_allocated_bytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_kary_uniform_marginals; qcheck_sampler_matches_reference ]
      );
    ]

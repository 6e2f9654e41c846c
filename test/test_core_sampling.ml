(* Tests for the rapid node sampling primitives (Section 3) and their plain
   random-walk baselines: parameter derivations, schedules, round counts,
   statistical uniformity, and the exponential round-count separation that
   is the paper's headline claim. *)

let rng () = Testutil.rng ()

(* ---------- Params ---------- *)

let test_log2i_ceil () =
  Alcotest.(check int) "1" 0 (Core.Params.log2i_ceil 1);
  Alcotest.(check int) "2" 1 (Core.Params.log2i_ceil 2);
  Alcotest.(check int) "3" 2 (Core.Params.log2i_ceil 3);
  Alcotest.(check int) "1024" 10 (Core.Params.log2i_ceil 1024);
  Alcotest.(check int) "1025" 11 (Core.Params.log2i_ceil 1025)

let test_walk_length () =
  (* d = 8: base 2, so ceil(2 alpha log2 n) *)
  Alcotest.(check int) "alpha 1, n 1024" 20
    (Core.Params.walk_length ~alpha:1.0 ~d:8 ~n:1024);
  Alcotest.(check int) "alpha 3, n 1024" 60
    (Core.Params.walk_length ~alpha:3.0 ~d:8 ~n:1024);
  Alcotest.check_raises "small d rejected"
    (Invalid_argument "Params.walk_length: d < 5") (fun () ->
      ignore (Core.Params.walk_length ~alpha:1.0 ~d:4 ~n:16))

let test_iterations_grow_loglog () =
  (* T = ceil(log2 walk_length) grows by O(1) when n squares. *)
  let t1 = Core.Params.iterations_hgraph ~alpha:1.0 ~d:8 ~n:1024 in
  let t2 = Core.Params.iterations_hgraph ~alpha:1.0 ~d:8 ~n:(1024 * 1024) in
  Alcotest.(check int) "T(2^10)" 5 t1;
  Alcotest.(check int) "T(2^20) = T + 1" 6 t2

let test_schedule_hgraph () =
  let s = Core.Params.schedule_hgraph ~eps:1.0 ~c:2.0 ~n:1024 ~t:3 in
  Alcotest.(check int) "length" 4 (Array.length s);
  Alcotest.(check int) "m_T = c log n" 20 s.(3);
  Alcotest.(check int) "m_0 = 27 c log n" 540 s.(0);
  (* schedule decreasing *)
  for i = 0 to 2 do
    Alcotest.(check bool) "decreasing" true (s.(i) > s.(i + 1))
  done

let test_schedule_hypercube () =
  let s = Core.Params.schedule_hypercube ~eps:1.0 ~c:2.0 ~n:1024 ~iters:3 in
  Alcotest.(check int) "m_0 = 8 c log n" 160 s.(0);
  Alcotest.(check int) "m_T" 20 s.(3)

let test_eps_guard () =
  Alcotest.check_raises "eps 0 rejected"
    (Invalid_argument "Params: eps must be in (0, 1]") (fun () ->
      ignore (Core.Params.schedule_hgraph ~eps:0.0 ~c:1.0 ~n:16 ~t:1))

let test_dos_dimension () =
  (* n = 4096, c = 1: n / log n = 341.3, largest 2^d <= 341 is 2^8 *)
  Alcotest.(check int) "4096 nodes" 8 (Core.Params.dos_dimension ~c:1.0 ~n:4096);
  Alcotest.(check int) "c = 2 halves it" 7
    (Core.Params.dos_dimension ~c:2.0 ~n:4096)

(* ---------- Multiset ---------- *)

let test_multiset_extract_all () =
  let m = Testutil.Multiset.of_array [| 5; 5; 7 |] in
  let r = rng () in
  let extracted = List.init 3 (fun _ ->
      Option.get (Testutil.Multiset.extract_random m r)) in
  Alcotest.(check (list int)) "multiset preserved" [ 5; 5; 7 ]
    (List.sort compare extracted);
  Alcotest.(check (option int)) "now empty" None
    (Testutil.Multiset.extract_random m r)

let test_multiset_peek_keeps () =
  let m = Testutil.Multiset.of_array [| 1; 2; 3 |] in
  ignore (Testutil.Multiset.peek_random m (rng ()));
  Alcotest.(check int) "peek does not remove" 3 (Testutil.Multiset.size m)

let test_multiset_extract_uniform () =
  let r = rng () in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let m = Testutil.Multiset.of_array [| 0; 1; 2; 3 |] in
    let v = Option.get (Testutil.Multiset.extract_random m r) in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "uniform extraction" true
    (Stats.Chi_square.test_uniform counts > 0.001)

(* ---------- Rapid sampling: H-graphs (Algorithm 1 / Theorem 2) ---------- *)

let test_hgraph_rounds_and_counts () =
  let g = Topology.Hgraph.random (rng ()) ~n:1024 ~d:8 in
  let r = Core.Rapid_hgraph.run ~eps:1.0 ~c:2.0 ~rng:(rng ()) g in
  let t = Core.Params.iterations_hgraph ~alpha:1.0 ~d:8 ~n:1024 in
  Alcotest.(check int) "2T rounds" (2 * t) r.Core.Sampling_result.rounds;
  Alcotest.(check int) "walk length 2^T" (1 lsl t)
    r.Core.Sampling_result.walk_length;
  Alcotest.(check bool) "walks long enough to mix" true
    (r.Core.Sampling_result.walk_length
    >= Core.Params.walk_length ~alpha:1.0 ~d:8 ~n:1024);
  (* every node gets samples (underflows only trim a few) *)
  Alcotest.(check bool) "many samples per node" true
    (Core.Sampling_result.samples_per_node r >= 15);
  Array.iter
    (Array.iter (fun s ->
         Alcotest.(check bool) "sample in range" true (s >= 0 && s < 1024)))
    r.Core.Sampling_result.samples

let test_hgraph_schedule_m_sizes () =
  (* Lemma 7's schedule: with no underflow, node v's multiset has exactly
     m_i elements after iteration i; at the end that is m_T. *)
  let g = Topology.Hgraph.random (rng ()) ~n:512 ~d:8 in
  let r = Core.Rapid_hgraph.run ~eps:1.0 ~c:4.0 ~rng:(rng ()) g in
  if r.Core.Sampling_result.underflows = 0 then begin
    let m_t =
      r.Core.Sampling_result.schedule.(Array.length r.Core.Sampling_result.schedule - 1)
    in
    Array.iter
      (fun samples ->
        Alcotest.(check int) "final multiset size = m_T" m_t
          (Array.length samples))
      r.Core.Sampling_result.samples
  end

let test_hgraph_almost_uniform () =
  let g = Topology.Hgraph.random (rng ()) ~n:512 ~d:8 in
  let counts = Array.make 512 0 in
  (* aggregate over several runs for statistical power *)
  let seeds = [ 11L; 22L; 33L; 44L ] in
  List.iter
    (fun seed ->
      let r =
        Core.Rapid_hgraph.run ~alpha:2.0 ~rng:(Prng.Stream.of_seed seed) g
      in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    seeds;
  Alcotest.(check bool) "chi-square does not reject uniformity" true
    (Stats.Chi_square.test_uniform counts > 0.001);
  let tv = Stats.Distance.tv_counts_uniform counts in
  let floor =
    Stats.Distance.expected_tv_noise_floor
      ~samples:(Array.fold_left ( + ) 0 counts)
      ~cells:512
  in
  Alcotest.(check bool)
    (Printf.sprintf "TV %.4f near noise floor %.4f" tv floor)
    true (tv < 1.5 *. floor)

let test_hgraph_work_polylog () =
  (* Theorem 2's communication bound: per-node per-round work is
     O(log^(2+log(2+eps)) n) bits — far below n. *)
  let n = 2048 in
  let g = Topology.Hgraph.random (rng ()) ~n ~d:8 in
  let r = Core.Rapid_hgraph.run ~eps:0.5 ~c:2.0 ~rng:(rng ()) g in
  let logn = 11.0 in
  let bound =
    (* generous constant x log^(2+log2(2.5)) n x id_bits *)
    20.0 *. (logn ** (2.0 +. (Float.log 2.5 /. Float.log 2.0))) *. 12.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "max work %d under %.0f" r.Core.Sampling_result.max_round_node_bits bound)
    true
    (float_of_int r.Core.Sampling_result.max_round_node_bits < bound)

let test_hgraph_underflow_rate_low () =
  (* Lemma 7: with a safe constant, the algorithm succeeds w.h.p. *)
  let failures = ref 0 in
  for seed = 1 to 10 do
    let s = Prng.Stream.of_seed (Int64.of_int seed) in
    let g = Topology.Hgraph.random (Prng.Stream.split s) ~n:512 ~d:8 in
    let r = Core.Rapid_hgraph.run ~eps:1.0 ~c:6.0 ~rng:(Prng.Stream.split s) g in
    if r.Core.Sampling_result.underflows > 0 then incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "failures %d <= 2 of 10" !failures)
    true (!failures <= 2)

let test_hgraph_plain_baseline () =
  let g = Topology.Hgraph.random (rng ()) ~n:1024 ~d:8 in
  let p = Core.Rapid_hgraph.run_plain ~alpha:1.0 ~k:5 ~rng:(rng ()) g in
  Alcotest.(check int) "walk length + report round" 21 p.Core.Sampling_result.rounds;
  Alcotest.(check int) "k samples per node" 5
    (Core.Sampling_result.samples_per_node p);
  Alcotest.(check int) "no underflows in plain walks" 0
    p.Core.Sampling_result.underflows

let test_exponential_separation_hgraph () =
  (* The paper's headline: rapid sampling needs exponentially fewer rounds
     than plain walks, and the gap widens with n. *)
  List.iter
    (fun n ->
      let g = Topology.Hgraph.random (rng ()) ~n ~d:8 in
      let fast = Core.Rapid_hgraph.run ~rng:(rng ()) g in
      let slow = Core.Rapid_hgraph.run_plain ~k:2 ~rng:(rng ()) g in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d rounds << %d rounds" n
           fast.Core.Sampling_result.rounds slow.Core.Sampling_result.rounds)
        true
        (2 * fast.Core.Sampling_result.rounds < slow.Core.Sampling_result.rounds))
    [ 256; 1024; 4096 ]

(* Alg. 1 executed message-by-message on the synchronous engine: every
   request and response is a real engine message delivered one round after
   it is sent.  The reference for [test_engine_matches_direct], which checks
   that the direct array implementation [Core.Rapid_hgraph.run] matches an
   actual synchronous message-passing execution. *)
type engine_msg = Request | Response of int

let rapid_hgraph_on_engine ~eps ~c ~rng g =
  let module Multiset = Testutil.Multiset in
  let n = Topology.Hgraph.n g in
  let d = Topology.Hgraph.degree g in
  let t = Core.Params.iterations_hgraph ~alpha:1.0 ~d ~n in
  let schedule = Core.Params.schedule_hgraph ~eps ~c ~n ~t in
  let id_bits = Simnet.Msg_size.id_bits n in
  let msg_bits (_ : engine_msg) = Simnet.Msg_size.ids_msg ~id_bits ~count:1 in
  let eng = Simnet.Engine.create ~n () in
  (* Nothing is blocked or crashed, so every send is accepted: each is
     charged to its sender here and to its receiver by the metered step. *)
  let metrics = Simnet.Metrics.create ~n in
  let meter = (metrics, msg_bits) in
  let send ~src ~dst w =
    Simnet.Metrics.on_send metrics ~node:src ~bits:(msg_bits w);
    Simnet.Engine.send eng ~src ~dst w
  in
  let node_rng = Prng.Stream.split_n rng n in
  let underflows = ref 0 in
  let m = Array.init n (fun _ -> Multiset.create ~capacity:schedule.(0) ()) in
  for v = 0 to n - 1 do
    for _ = 1 to schedule.(0) do
      Multiset.add m.(v) (Topology.Hgraph.random_neighbor g node_rng.(v) v)
    done
  done;
  let install me inbox =
    (* Phase 4 of the previous iteration: M is replaced by the responses. *)
    let any = List.exists (fun (_, w) -> w <> Request) inbox in
    if any then begin
      Multiset.clear m.(me);
      List.iter
        (fun (_, w) ->
          match w with Response x -> Multiset.add m.(me) x | Request -> ())
        inbox
    end
  in
  for i = 1 to t do
    let mi = schedule.(i) in
    (* Round A: install last iteration's responses, then send requests. *)
    Testutil.step ~meter eng (fun ~round:_ ~me ~inbox ->
        if i > 1 then install me inbox;
        for _ = 1 to mi do
          match Multiset.extract_random m.(me) node_rng.(me) with
          | None -> incr underflows
          | Some u -> send ~src:me ~dst:u Request
        done);
    (* Round B: serve the requests that just arrived. *)
    Testutil.step ~meter eng (fun ~round:_ ~me ~inbox ->
        List.iter
          (fun (requester, w) ->
            match w with
            | Request -> (
                match Multiset.extract_random m.(me) node_rng.(me) with
                | None -> incr underflows
                | Some x ->
                    send ~src:me ~dst:requester (Response x))
            | Response _ -> ())
          inbox)
  done;
  (* Delivery of the final responses (the receive step of the round after
     the last send; no further sends, so it adds no communication round in
     the paper's accounting). *)
  Testutil.step ~meter eng (fun ~round:_ ~me ~inbox -> install me inbox);
  let samples =
    Array.mapi
      (fun v ms ->
        let a = Multiset.to_array ms in
        Prng.Stream.shuffle_in_place node_rng.(v) a;
        a)
      m
  in
  {
    Core.Sampling_result.samples;
    rounds = 2 * t;
    walk_length = 1 lsl t;
    schedule;
    underflows = !underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Simnet.Metrics.max_node_bits_ever metrics;
    total_bits = Simnet.Metrics.total_bits metrics;
  }

let test_engine_matches_direct () =
  (* Differential check: the message-level engine execution and the direct
     array implementation must agree on rounds, schedules, per-node sample
     counts (absent underflow) and distribution. *)
  let g = Topology.Hgraph.random (rng ()) ~n:512 ~d:8 in
  let direct = Core.Rapid_hgraph.run ~eps:1.0 ~c:4.0 ~rng:(rng ()) g in
  let engine = rapid_hgraph_on_engine ~eps:1.0 ~c:4.0 ~rng:(rng ()) g in
  Alcotest.(check int) "same rounds" direct.Core.Sampling_result.rounds
    engine.Core.Sampling_result.rounds;
  Alcotest.(check (array int)) "same schedule" direct.Core.Sampling_result.schedule
    engine.Core.Sampling_result.schedule;
  Alcotest.(check int) "same walk length" direct.Core.Sampling_result.walk_length
    engine.Core.Sampling_result.walk_length;
  if
    direct.Core.Sampling_result.underflows = 0
    && engine.Core.Sampling_result.underflows = 0
  then
    Alcotest.(check int) "same samples per node"
      (Core.Sampling_result.samples_per_node direct)
      (Core.Sampling_result.samples_per_node engine);
  (* bit totals agree up to rng-driven routing differences *)
  let ratio =
    float_of_int engine.Core.Sampling_result.total_bits
    /. float_of_int direct.Core.Sampling_result.total_bits
  in
  Alcotest.(check bool)
    (Printf.sprintf "total bits within 2%% (ratio %.4f)" ratio)
    true
    (ratio > 0.98 && ratio < 1.02);
  let counts = Array.make 512 0 in
  Array.iter
    (Array.iter (fun v -> counts.(v) <- counts.(v) + 1))
    engine.Core.Sampling_result.samples;
  Alcotest.(check bool) "engine samples uniform" true
    (Stats.Chi_square.test_uniform counts > 0.001)

(* Reference Algorithm 1: the per-node Multiset formulation the flat plane
   in Core.Rapid_hgraph replaced, kept as its oracle.  Requesters are
   queued per server in arrival order, responses land in a second set of
   multisets that replaces M after each iteration, and Simnet.Metrics
   charges every message. *)
let reference_alg1 ~eps ~c ~alpha ~trace ~rng g =
  let module Multiset = Testutil.Multiset in
  let module Metrics = Simnet.Metrics in
  let n = Topology.Hgraph.n g in
  let d = Topology.Hgraph.degree g in
  let t = Core.Params.iterations_hgraph ~alpha ~d ~n in
  let schedule = Core.Params.schedule_hgraph ~eps ~c ~n ~t in
  let bits =
    Simnet.Msg_size.ids_msg ~id_bits:(Simnet.Msg_size.id_bits n) ~count:1
  in
  let metrics = Metrics.create ~n in
  let message ~src ~dst =
    Metrics.on_send metrics ~node:src ~bits;
    Metrics.on_recv metrics ~node:dst ~bits
  in
  let finish_round () =
    let s = Metrics.finish_round metrics in
    if Simnet.Trace.enabled trace then
      Simnet.Trace.emit trace (Simnet.Trace.round_of_summary s)
  in
  let underflows = ref 0 in
  let m = Array.init n (fun _ -> Multiset.create ~capacity:schedule.(0) ()) in
  for v = 0 to n - 1 do
    for _ = 1 to schedule.(0) do
      Multiset.add m.(v) (Topology.Hgraph.random_neighbor g rng v)
    done
  done;
  let requesters = Array.init n (fun _ -> Topology.Intvec.create ()) in
  let fresh = Array.init n (fun _ -> Multiset.create ()) in
  for i = 1 to t do
    for v = 0 to n - 1 do
      for _ = 1 to schedule.(i) do
        match Multiset.extract_random m.(v) rng with
        | None -> incr underflows
        | Some u ->
            message ~src:v ~dst:u;
            Topology.Intvec.push requesters.(u) v
      done
    done;
    finish_round ();
    for u = 0 to n - 1 do
      Topology.Intvec.iter
        (fun v ->
          match Multiset.extract_random m.(u) rng with
          | None -> incr underflows
          | Some w ->
              message ~src:u ~dst:v;
              Multiset.add fresh.(v) w)
        requesters.(u);
      Topology.Intvec.clear requesters.(u)
    done;
    finish_round ();
    for v = 0 to n - 1 do
      Multiset.clear m.(v);
      Multiset.iter (Multiset.add m.(v)) fresh.(v);
      Multiset.clear fresh.(v)
    done
  done;
  let samples =
    Array.map
      (fun ms ->
        let a = Multiset.to_array ms in
        Prng.Stream.shuffle_in_place rng a;
        a)
      m
  in
  {
    Core.Sampling_result.samples;
    rounds = 2 * t;
    walk_length = 1 lsl t;
    schedule;
    underflows = !underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

(* A trace that keeps its events, newest first. *)
let recording () =
  let events = ref [] in
  (Simnet.Trace.make ~emit:(fun e -> events := e :: !events) ~close:ignore,
   events)

(* [Rapid_hgraph.run] and the reference (under the same retry policy) on
   one graph and seed: equal results, equal traces and equal rng positions
   afterwards, i.e. the same draws. *)
let alg1_agrees ~seed ~n ~d ~eps ~c ~alpha ~retry =
  let g = Topology.Hgraph.random (Prng.Stream.of_seed seed) ~n ~d in
  let rng_a = Prng.Stream.of_seed seed and rng_b = Prng.Stream.of_seed seed in
  let trace_a, events_a = recording () and trace_b, events_b = recording () in
  let a = Core.Rapid_hgraph.run ~eps ~c ~alpha ~retry ~trace:trace_a ~rng:rng_a g in
  let b =
    Core.Retry.sampling_with_retry ~retry ~c ~trace:trace_b
      ~attempt_fn:(fun ~c ->
        reference_alg1 ~eps ~c ~alpha ~trace:trace_b ~rng:rng_b g)
  in
  a = b && !events_a = !events_b
  && Prng.Stream.bits64 rng_a = Prng.Stream.bits64 rng_b

let test_alg1_oracle_underflow () =
  (* c = 1 at n = 512 underflows (the cli.t pin), so the oracle covers the
     path that records an underflow without consuming a draw, and the
     retry policy re-runs escalated attempts; alpha = 0.02 gives T = 0,
     where no iteration runs and schedule.(1) does not exist. *)
  let g = Topology.Hgraph.random (Prng.Stream.of_seed 11L) ~n:512 ~d:8 in
  let r = Core.Rapid_hgraph.run ~c:1.0 ~rng:(Prng.Stream.of_seed 11L) g in
  Alcotest.(check bool) "underflows occur" true
    (r.Core.Sampling_result.underflows > 0);
  Alcotest.(check bool) "underflowing run matches the reference" true
    (alg1_agrees ~seed:11L ~n:512 ~d:8 ~eps:0.5 ~c:1.0 ~alpha:1.0
       ~retry:Core.Retry.fixed);
  let retry = Core.Retry.make ~max_retries:2 ~factor:2.0 () in
  let r =
    Core.Rapid_hgraph.run ~c:1.0 ~retry ~rng:(Prng.Stream.of_seed 11L) g
  in
  Alcotest.(check bool) "escalated attempts run" true
    (r.Core.Sampling_result.escalations > 0);
  Alcotest.(check bool) "retried run matches the reference" true
    (alg1_agrees ~seed:11L ~n:512 ~d:8 ~eps:0.5 ~c:1.0 ~alpha:1.0 ~retry);
  Alcotest.(check int) "alpha = 0.02 gives T = 0" 0
    (Core.Params.iterations_hgraph ~alpha:0.02 ~d:8 ~n:512);
  Alcotest.(check bool) "T = 0 matches the reference" true
    (alg1_agrees ~seed:11L ~n:512 ~d:8 ~eps:0.5 ~c:1.0 ~alpha:0.02
       ~retry:Core.Retry.fixed)

let test_alg1_oracle_workload_shape () =
  (* The hgraph-churn shape (d = 8, c = 2) at n = 2048, where all five
     doubling iterations run and servers exhaust their remainders, so the
     serve pass both delivers and underflows inside one server's queue;
     the qcheck property below stays at n <= 512. *)
  let n = 2048 and seed = 1L in
  let g = Topology.Hgraph.random (Prng.Stream.of_seed seed) ~n ~d:8 in
  let r = Core.Rapid_hgraph.run ~c:2.0 ~rng:(Prng.Stream.of_seed seed) g in
  Alcotest.(check int) "five iterations" 10 r.Core.Sampling_result.rounds;
  Alcotest.(check bool)
    (Printf.sprintf "underflows occur (%d)" r.Core.Sampling_result.underflows)
    true
    (r.Core.Sampling_result.underflows > 0);
  Alcotest.(check bool) "matches the reference" true
    (alg1_agrees ~seed ~n ~d:8 ~eps:0.5 ~c:2.0 ~alpha:1.0
       ~retry:Core.Retry.fixed)

(* Degrees 6 and 10 are not powers of two, so Phase 1's edge draws take
   the rejection path of [Prng.Stream.fill_int32]. *)
let qcheck_alg1_matches_reference =
  QCheck.Test.make ~name:"flat Alg. 1 equals the Multiset reference"
    ~count:30
    QCheck.(
      pair
        (quad int64 (int_range 3 512) (oneofl [ 1.0; 2.0; 4.0 ])
           (oneofl [ 6; 8; 10 ]))
        (triple (oneofl [ 0.5; 1.0 ]) (oneofl [ 0.02; 0.5; 1.0 ]) bool))
    (fun ((seed, n, c, d), (eps, alpha, retried)) ->
      let retry =
        if retried then Core.Retry.make ~max_retries:2 ~factor:1.5 ()
        else Core.Retry.fixed
      in
      alg1_agrees ~seed ~n ~d ~eps ~c ~alpha ~retry)

(* Words allocated by [f ()]: minor words, and all words (minor plus
   direct major allocations).  Single-domain; the minor heap is flushed
   first since OCaml 5 counts minor words at collections. *)
let allocated f =
  let read () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  in
  let minor0, all0 = read () in
  let r = f () in
  let minor1, all1 = read () in
  (r, minor1 -. minor0, all1 -. all0)

let test_alg1_allocation () =
  (* The flat plane holds 16-bit ids at this n: 2·n·(m_0 + m_1) bytes for
     M and the request buffer, plus the samples and O(n) words of per-node
     cursors and counters. *)
  let n = 1024 in
  let g = Topology.Hgraph.random (rng ()) ~n ~d:8 in
  let r, minor, all =
    allocated (fun () -> Core.Rapid_hgraph.run ~c:2.0 ~rng:(rng ()) g)
  in
  let s = r.Core.Sampling_result.schedule in
  let plane_words = n * (s.(0) + s.(1)) / 4 in
  let sample_words =
    Array.fold_left (fun a x -> a + Array.length x + 1) 0
      r.Core.Sampling_result.samples
  in
  let bound = plane_words + sample_words + (16 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 1M" minor) true (minor < 1e6);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %d (plane %d, samples %d)" all bound
       plane_words sample_words)
    true
    (all <= float_of_int bound)

let test_alg1_allocated_bytes () =
  (* At the hgraph-churn shape every id fits in 16 bits, so the plane and
     the request buffer take 2·n·(m_0 + m_1) bytes; 1 MB more covers the
     samples and the per-node counters.  On 4-byte words the buffers alone
     would take twice the first term. *)
  let n = 4096 in
  let g = Topology.Hgraph.random (rng ()) ~n ~d:8 in
  let r, bytes =
    Testutil.allocated_bytes (fun () -> Core.Rapid_hgraph.run ~rng:(rng ()) g)
  in
  let s = r.Core.Sampling_result.schedule in
  let bound = (2 * n * (s.(0) + s.(1))) + (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes <= %d (m_0 = %d, m_1 = %d)" bytes bound s.(0)
       s.(1))
    true
    (bytes <= float_of_int bound)

(* ---------- Rapid sampling: hypercube (Algorithm 2 / Theorem 3) ---------- *)

let test_hypercube_rounds () =
  let cube = Topology.Hypercube.create 8 in
  let r = Core.Rapid_hypercube.run ~rng:(rng ()) cube in
  Alcotest.(check int) "2 ceil(log2 d) rounds" 6 r.Core.Sampling_result.rounds;
  Alcotest.(check int) "walk length d" 8 r.Core.Sampling_result.walk_length

let test_hypercube_uniform () =
  let cube = Topology.Hypercube.create 9 in
  let counts = Array.make 512 0 in
  List.iter
    (fun seed ->
      let r = Core.Rapid_hypercube.run ~rng:(Prng.Stream.of_seed seed) cube in
      Array.iter
        (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
        r.Core.Sampling_result.samples)
    [ 5L; 6L; 7L ];
  Alcotest.(check bool) "exactly uniform (chi-square)" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_hypercube_non_power_of_two_dim () =
  (* d = 10 is not a power of two: the left-leaning segment tree must still
     randomize all coordinates. *)
  let cube = Topology.Hypercube.create 10 in
  let r = Core.Rapid_hypercube.run ~c:3.0 ~rng:(rng ()) cube in
  Alcotest.(check int) "2 ceil(log2 10) = 8 rounds" 8 r.Core.Sampling_result.rounds;
  let counts = Array.make 1024 0 in
  Array.iter
    (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
    r.Core.Sampling_result.samples;
  Alcotest.(check bool) "uniform for general d" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_hypercube_within_node_independence () =
  (* The regression found during development: per-node pools must behave as
     independent samples, so scattering group members via pool prefixes
     must give binomial-like occupancy (not server-clumped). *)
  let cube = Topology.Hypercube.create 8 in
  let n = 256 in
  let r = Core.Rapid_hypercube.run ~c:4.0 ~rng:(rng ()) cube in
  let newsz = Array.make n 0 in
  Array.iter
    (fun pool ->
      for i = 0 to min 15 (Array.length pool - 1) do
        newsz.(pool.(i)) <- newsz.(pool.(i)) + 1
      done)
    r.Core.Sampling_result.samples;
  let mean =
    float_of_int (Array.fold_left ( + ) 0 newsz) /. float_of_int n
  in
  let var =
    Array.fold_left (fun a c -> a +. ((float_of_int c -. mean) ** 2.0)) 0.0 newsz
    /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "variance %.1f within 2x of Poisson mean %.1f" var mean)
    true
    (var < 2.0 *. mean)

let test_hypercube_plain_baseline () =
  let cube = Topology.Hypercube.create 7 in
  let p = Core.Rapid_hypercube.run_plain ~k:10 ~rng:(rng ()) cube in
  Alcotest.(check int) "d + 1 rounds" 8 p.Core.Sampling_result.rounds;
  let counts = Array.make 128 0 in
  Array.iter
    (Array.iter (fun s -> counts.(s) <- counts.(s) + 1))
    p.Core.Sampling_result.samples;
  Alcotest.(check bool) "token walk uniform" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_exponential_separation_hypercube () =
  List.iter
    (fun d ->
      let cube = Topology.Hypercube.create d in
      let fast = Core.Rapid_hypercube.run ~rng:(rng ()) cube in
      let slow = Core.Rapid_hypercube.run_plain ~k:2 ~rng:(rng ()) cube in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: %d << %d rounds" d fast.Core.Sampling_result.rounds
           slow.Core.Sampling_result.rounds)
        true
        (fast.Core.Sampling_result.rounds < slow.Core.Sampling_result.rounds))
    [ 8; 10; 12 ]

(* ---------- properties ---------- *)

let qcheck_schedule_monotone =
  QCheck.Test.make ~name:"m_i schedules strictly decrease" ~count:100
    QCheck.(triple (float_range 0.1 1.0) (float_range 1.0 8.0) (int_range 16 100_000))
    (fun (eps, c, n) ->
      let s = Core.Params.schedule_hgraph ~eps ~c ~n ~t:5 in
      let ok = ref true in
      for i = 0 to Array.length s - 2 do
        if s.(i) < s.(i + 1) then ok := false
      done;
      !ok && s.(5) >= 1)

let qcheck_samples_in_range =
  QCheck.Test.make ~name:"all rapid H-graph samples are valid node ids"
    ~count:10
    QCheck.(pair int64 (int_range 64 512))
    (fun (seed, n) ->
      let s = Prng.Stream.of_seed seed in
      let g = Topology.Hgraph.random (Prng.Stream.split s) ~n ~d:8 in
      let r = Core.Rapid_hgraph.run ~c:1.0 ~rng:(Prng.Stream.split s) g in
      Array.for_all
        (Array.for_all (fun v -> v >= 0 && v < n))
        r.Core.Sampling_result.samples)

(* ---------- retry / escalation (fault-model extension) ---------- *)

let test_retry_threshold_recovery () =
  (* E4's threshold: at c = 1.0 the schedule is under-provisioned and a
     single attempt underflows.  The escalating retry policy must end with
     zero underflows where the fixed policy failed. *)
  let n = 512 in
  let seed = 11L in
  let fixed =
    let s = Prng.Stream.of_seed seed in
    let g = Topology.Hgraph.random (Prng.Stream.split s) ~n ~d:8 in
    Core.Rapid_hgraph.run ~c:1.0 ~rng:(Prng.Stream.split s) g
  in
  Alcotest.(check bool) "fixed c = 1.0 underflows" true
    (fixed.Core.Sampling_result.underflows > 0);
  let retried =
    let s = Prng.Stream.of_seed seed in
    let g = Topology.Hgraph.random (Prng.Stream.split s) ~n ~d:8 in
    Core.Rapid_hgraph.run ~c:1.0
      ~retry:(Core.Retry.make ~max_retries:6 ~factor:2.0 ())
      ~rng:(Prng.Stream.split s) g
  in
  Alcotest.(check int) "escalation ends with zero underflows" 0
    retried.Core.Sampling_result.underflows;
  Alcotest.(check bool) "retries were needed and recorded" true
    (retried.Core.Sampling_result.retries > 0
    && retried.Core.Sampling_result.escalations > 0)

let test_retry_fixed_is_identity () =
  (* The zero-retry policy must reproduce the legacy driver byte for byte:
     same samples, same counters. *)
  let s = Testutil.rng () in
  let g = Topology.Hgraph.random (Prng.Stream.split s) ~n:256 ~d:8 in
  let s1 = Prng.Stream.of_seed 5L and s2 = Prng.Stream.of_seed 5L in
  let legacy = Core.Rapid_hgraph.run ~c:2.0 ~rng:s1 g in
  let explicit = Core.Rapid_hgraph.run ~c:2.0 ~retry:Core.Retry.fixed ~rng:s2 g in
  Alcotest.(check bool) "identical samples" true
    (legacy.Core.Sampling_result.samples
    = explicit.Core.Sampling_result.samples);
  Alcotest.(check int) "no retries" 0 explicit.Core.Sampling_result.retries;
  Alcotest.(check int) "no escalations" 0
    explicit.Core.Sampling_result.escalations

let test_retry_policy_validation () =
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Retry.make: max_retries < 0") (fun () ->
      ignore (Core.Retry.make ~max_retries:(-1) ()));
  let p = Core.Retry.make ~max_retries:2 ~factor:2.0 ~c_cap:6.0 () in
  Alcotest.(check (float 1e-9)) "escalation doubles" 4.0
    (Core.Retry.escalate p ~c:2.0 ~attempt:1);
  Alcotest.(check (float 1e-9)) "cap binds" 6.0
    (Core.Retry.escalate p ~c:2.0 ~attempt:5);
  Alcotest.(check bool) "fixed disabled" false (Core.Retry.enabled Core.Retry.fixed)

let () =
  Alcotest.run "core-sampling"
    [
      ( "params",
        [
          Alcotest.test_case "log2i_ceil" `Quick test_log2i_ceil;
          Alcotest.test_case "walk length" `Quick test_walk_length;
          Alcotest.test_case "iterations loglog" `Quick
            test_iterations_grow_loglog;
          Alcotest.test_case "hgraph schedule" `Quick test_schedule_hgraph;
          Alcotest.test_case "hypercube schedule" `Quick test_schedule_hypercube;
          Alcotest.test_case "eps guard" `Quick test_eps_guard;
          Alcotest.test_case "dos dimension" `Quick test_dos_dimension;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "extract all" `Quick test_multiset_extract_all;
          Alcotest.test_case "peek keeps" `Quick test_multiset_peek_keeps;
          Alcotest.test_case "uniform extraction" `Slow
            test_multiset_extract_uniform;
        ] );
      ( "rapid-hgraph",
        [
          Alcotest.test_case "rounds and counts" `Quick
            test_hgraph_rounds_and_counts;
          Alcotest.test_case "schedule sizes" `Quick test_hgraph_schedule_m_sizes;
          Alcotest.test_case "almost uniform" `Slow test_hgraph_almost_uniform;
          Alcotest.test_case "polylog work" `Quick test_hgraph_work_polylog;
          Alcotest.test_case "low underflow rate" `Slow
            test_hgraph_underflow_rate_low;
          Alcotest.test_case "plain baseline" `Quick test_hgraph_plain_baseline;
          Alcotest.test_case "exponential separation" `Slow
            test_exponential_separation_hgraph;
          Alcotest.test_case "engine matches direct" `Quick
            test_engine_matches_direct;
          Alcotest.test_case "oracle covers underflow" `Quick
            test_alg1_oracle_underflow;
          Alcotest.test_case "oracle at workload shape" `Quick
            test_alg1_oracle_workload_shape;
          Alcotest.test_case "allocation" `Quick test_alg1_allocation;
          Alcotest.test_case "allocated bytes at n = 4096" `Quick
            test_alg1_allocated_bytes;
        ] );
      ( "rapid-hypercube",
        [
          Alcotest.test_case "rounds" `Quick test_hypercube_rounds;
          Alcotest.test_case "uniform" `Slow test_hypercube_uniform;
          Alcotest.test_case "general d" `Slow test_hypercube_non_power_of_two_dim;
          Alcotest.test_case "pool independence" `Quick
            test_hypercube_within_node_independence;
          Alcotest.test_case "plain baseline" `Quick test_hypercube_plain_baseline;
          Alcotest.test_case "exponential separation" `Slow
            test_exponential_separation_hypercube;
        ] );
      ( "retry",
        [
          Alcotest.test_case "threshold recovery" `Quick
            test_retry_threshold_recovery;
          Alcotest.test_case "fixed policy is identity" `Quick
            test_retry_fixed_is_identity;
          Alcotest.test_case "policy validation" `Quick
            test_retry_policy_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_schedule_monotone; qcheck_samples_in_range;
            qcheck_alg1_matches_reference ] );
    ]

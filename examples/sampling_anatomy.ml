(* A guided tour of the rapid node sampling primitive (Algorithm 1): what
   the multiset schedule looks like, how the walk length doubles per
   iteration, and why the result costs exponentially fewer rounds than
   plain random walks.

   Run with:  dune exec examples/sampling_anatomy.exe *)

let () =
  let n = 4096 and d = 8 in
  let alpha = 1.0 and eps = 0.5 and c = 2.0 in
  Printf.printf "network: H-graph, n = %d, degree d = %d\n\n" n d;

  (* The walk length Lemma 2 demands for mixing, and the doubling budget
     that reaches it. *)
  let len = Core.Params.walk_length ~alpha ~d ~n in
  let t = Core.Params.iterations_hgraph ~alpha ~d ~n in
  Printf.printf
    "Lemma 2 wants walks of length 2 alpha log_(d/4) n = %d;\n\
     pointer doubling reaches length 2^T with T = ceil(log2 %d) = %d\n\n"
    len len t;

  (* The m_i schedule of Lemma 7: each iteration hands out m_i requests
     from a multiset of m_(i-1) elements; the slack (2+eps)^(T-i) is what
     absorbs the binomially distributed request load. *)
  let schedule = Core.Params.schedule_hgraph ~eps ~c ~n ~t in
  Printf.printf "the multiset schedule m_i = ceil((2+eps)^(T-i) c log2 n):\n";
  Array.iteri
    (fun i m ->
      Printf.printf "  after iteration %d: |M| = %-6d (walks of length %d)\n" i
        m (1 lsl i))
    schedule;
  Printf.printf "\n";

  (* Run it and watch the numbers come out as promised. *)
  let rng = Prng.Stream.of_seed 1234L in
  let g = Topology.Hgraph.random (Prng.Stream.split rng) ~n ~d in
  let r = Core.Rapid_hgraph.run ~eps ~c ~alpha ~rng:(Prng.Stream.split rng) g in
  Printf.printf
    "measured: %d communication rounds (2 per iteration), %d samples/node,\n\
     %d underflows, max %d bits of per-node work in any round\n\n"
    r.Core.Sampling_result.rounds
    (Core.Sampling_result.samples_per_node r)
    r.Core.Sampling_result.underflows r.Core.Sampling_result.max_round_node_bits;

  (* The same walks done naively. *)
  let p = Core.Rapid_hgraph.run_plain ~alpha ~k:4 ~rng:(Prng.Stream.split rng) g in
  Printf.printf
    "plain random walks of the same length: %d rounds - the gap is the \n\
     paper's exponential improvement (%d = O(log log n) vs %d = O(log n)).\n"
    p.Core.Sampling_result.rounds r.Core.Sampling_result.rounds
    p.Core.Sampling_result.rounds

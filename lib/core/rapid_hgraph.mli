(** Rapid node sampling in H-graphs (Algorithm 1, Section 3.1).

    Every node builds a multiset M of node ids that, after T doubling
    iterations, contains ids reached by independent random walks of length
    2^T >= ceil(2 alpha log_{d/4} n) — long enough to mix (Lemma 2), so the
    ids are distributed almost uniformly over the node set (Theorem 2).
    Each iteration costs two communication rounds (requests travel, then
    responses travel), for 2T = O(log log n) rounds in total.

    Messages are accounted per the paper's model: a request carries the
    requester's id, a response carries one sampled id; both are charged
    [Msg_size.header_bits] plus [Msg_size.id_bits n] per id.

    Layout: every M lives in one byte plane of w-byte ids, node v's as a
    slice of its own block of m_0 = [schedule.(0)] slots (the schedule
    decreases, so m_0 bounds M).  Phase 2 swaps each drawn target to the
    end of the live slice, so the live prefix evolves exactly as under
    swap-removal; a stable counting sort by target fills one request
    buffer with the requesters, grouped by server in arrival order.
    Phase 3 serves them from each server's remainder and writes each reply
    in place into the requester's drained tail, from where its remainder
    ended after Phase 2 (a remainder only shrinks while its node serves,
    so replies never overwrite one); that tail is M for the next
    iteration.  Phase 1 is one {!Prng.Stream.fill_words} call per node,
    which draws v's m_0 edge indices and maps each through v's neighbor
    list as it stores it; each node's Phase-2 picks, each server's Phase-3
    serves (the x-th requester in arrival order gets the word step x moved
    to the end), and the final shuffle of its samples, are one
    {!Prng.Stream.shuffle_tail_words} call (the same draws as the
    per-slot [Prng.Stream.int] loops).  Round loads are taken from the
    counts rather than per message: a server's request count from the
    counting sort, its served count, and a requester's response count.
    Memory: w·n·(m_0 + m_1) bytes for the plane and the request buffer,
    where w = 2 if and only if every stored value (an id or a requester,
    both below n) fits in 16 bits, i.e. n <= 2^16, and w = 4 otherwise;
    no allocation per draw or message.  With d = 8 and the defaults
    (c = 2, eps = 0.5) that is 26.9 MB at n = 2^12 (m_0 = 2344,
    m_1 = 938), 573 MB at 2^16 (3125, 1250) and 6.09 GB at 2^17 (T = 6:
    8301, 3321, 4-byte words). *)

val run :
  ?eps:float ->
  ?c:float ->
  ?alpha:float ->
  ?trace:Simnet.Trace.t ->
  ?retry:Retry.policy ->
  rng:Prng.Stream.t ->
  Topology.Hgraph.t ->
  Sampling_result.t
(** Defaults: [eps = 0.5], [c = 2.0], [alpha = 1.0].  [trace] (default
    {!Simnet.Trace.null}) receives one [Round] event per communication
    round.  [c] plays the role of
    the constant of Lemma 7 (it must satisfy [c >= beta] for the desired
    [beta log n] samples); the number of samples delivered per node is
    [schedule.(T)] = ceil(c log2 n) when no underflow occurs.

    [retry] (default {!Retry.fixed}, i.e. off) re-runs an underflowing
    attempt with an escalated [c] (see {!Retry.escalate}), up to
    [max_retries] times; re-attempts are counted in the result's [retries]
    and [escalations] fields and each emits a ["sampling/retry"] trace
    note.  With the fixed policy the run is byte-identical to the paper's
    single-attempt driver. *)

val run_plain :
  ?alpha:float ->
  ?trace:Simnet.Trace.t ->
  k:int ->
  rng:Prng.Stream.t ->
  Topology.Hgraph.t ->
  Sampling_result.t
(** Ablation A1 (the paper's baseline, Section 2.3): every node releases [k]
    plain random-walk tokens of length ceil(2 alpha log_{d/4} n); each token
    hop is one message and one round, plus a final round reporting the
    endpoint to the origin.  [walk_length] is the token walk length,
    [schedule] is [[|k|]]. *)

(** Rapid node sampling in the hypercube (Algorithm 2, Section 3.2).

    Node u keeps one multiset M_j per coordinate j.  Initially M_j holds
    m_0 copies of "u with coordinate j randomized" (one step of the d-round
    sampling walk of Section 2.3, restricted to dimension j).  Iteration i
    merges the coordinate segment starting at j with the segment starting at
    j + 2^(i-1): u asks a node v drawn from M_j — whose coordinates in
    [j, j + 2^(i-1)) are already random — for an element of v's own bucket
    M_(j + 2^(i-1)), whose further 2^(i-1) coordinates are random relative
    to v (Lemma 8).  After ceil(log2 d) iterations the bucket of coordinate
    0 holds nodes all of whose coordinates are uniformly random, i.e. exact
    uniform samples over V (Theorem 3).

    The paper assumes d is a power of two for presentation; we support any
    d >= 1 by letting a trailing segment without a right sibling simply
    persist to the next iteration (the segment tree becomes left-leaning;
    the invariant of Lemma 8 is unaffected).

    Both entry points run on the k-ary implementation with a fair-coin
    redraw ({!Rapid_kary.alg2}, {!Rapid_kary.token_walk}): Phase 1 fills
    bucket (u, j) slot by slot, one [Prng.Stream.bool] coin per slot in
    (u, j, slot) order, keeping u or flipping coordinate j, and written at
    the plane's width.  The buckets live in one flat plane of w-byte ids
    of stride m_0, bucket [u·d + j] at offset [(u·d + j)·m_0]; Phase 3
    writes each reply straight into the drained left bucket, since it
    reads only right siblings.  An attempt holds w·n·d·m_0 bytes of
    buckets plus the largest iteration's request buffer
    (w' · max_i n · left segments · m_i bytes), and allocates nothing per
    draw; w = 2 if and only if the ids fit in 16 bits (n <= 2^16), w' = 2
    if and only if the bucket indices do (n·d <= 2^16), else 4. *)

val run :
  ?eps:float ->
  ?c:float ->
  ?trace:Simnet.Trace.t ->
  ?retry:Retry.policy ->
  rng:Prng.Stream.t ->
  Topology.Hypercube.t ->
  Sampling_result.t
(** Defaults: [eps = 0.5], [c = 2.0] (the constant of Lemma 9).  [trace]
    (default {!Simnet.Trace.null}) receives one [Round] event per
    communication round.  Delivers
    [schedule.(R)] = ceil(c log2 n) exactly-uniform samples per node when no
    underflow occurs; [rounds = 2 ceil(log2 d)]; [walk_length] reports [d]
    (all coordinates randomized).  [retry] (default {!Retry.fixed}, off)
    re-runs an underflowing attempt with an escalated [c] exactly as in
    {!Rapid_hgraph.run}. *)

val run_plain :
  ?trace:Simnet.Trace.t ->
  k:int ->
  rng:Prng.Stream.t ->
  Topology.Hypercube.t ->
  Sampling_result.t
(** The baseline d-round token walk of Section 2.3: each node releases [k]
    tokens; in round i the holder flips a fair coin and either keeps the
    token or forwards it across dimension i; after d rounds the holder
    reports its id to the origin.  Exactly uniform as well, but needs
    [d + 1 = log2 n + 1] rounds. *)

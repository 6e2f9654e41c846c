(** Rapid node sampling on the k-ary hypercube — the extension Section 7.2
    calls "straightforward": Algorithm 2 never uses the binary alphabet,
    only the per-coordinate randomization and the segment-doubling merge, so
    it generalizes verbatim to labels over {0, ..., k-1}^d.

    Node u keeps one multiset per coordinate; bucket j starts with m_0
    copies of "u with digit j redrawn uniformly from {0..k-1}" (the one-step
    walk along dimension j, staying put with probability 1/k).  Iteration i
    composes segments exactly as in the binary primitive; after
    ceil(log2 d) iterations the coordinate-0 bucket holds exactly uniform
    samples over the k^d nodes.

    This is what makes the robust DHT's reconfiguration principled: the
    groups of the k-ary supernode cube can rebuild themselves with the same
    O(log log n)-round machinery as the Section 5 network. *)

val alg2 :
  eps:float ->
  c:float ->
  trace:Simnet.Trace.t ->
  rng:Prng.Stream.t ->
  n:int ->
  d:int ->
  phase1:(width:int -> Bytes.t -> pos:int -> len:int -> int -> int -> unit) ->
  Sampling_result.t
(** Algorithm 2 over any alphabet: the one implementation behind {!run} and
    {!Rapid_hypercube.run}.  [phase1 ~width plane ~pos ~len u j] fills
    bucket (u, j): it writes [len] = m_0 copies of node [u] with
    coordinate [j] randomized, as [width]-byte little-endian ids, into
    words [pos .. pos + len - 1] of [plane].  It is called once per
    bucket, in (u, j) order, before any other draw, and may consume [rng];
    {!run}'s writer is one {!Prng.Stream.fill_words} call that draws the
    bucket's m_0 digits and maps each through a k-entry table of u with
    digit j replaced, {!Rapid_hypercube.run}'s flips one coin per slot.
    Each Phase-2 bucket's picks are one {!Prng.Stream.shuffle_tail_words}
    call, and so is the final shuffle of each node's samples.  [trace]
    receives one [Round] event per communication round.

    Layout: all n·d buckets share one byte plane of w-byte ids, of stride
    m_0 = [schedule.(0)], bucket [u·d + j] at offset [(u·d + j)·m_0], with a
    length per bucket.  Phase 2 leaves each left bucket's drawn targets in
    its tail; a counting sort by target fills one request buffer with the
    requesting buckets, grouped by server in arrival order; Phase 3 writes
    each reply straight into the drained left bucket (it reads only right
    siblings), so there is no second plane and no install copy.

    Memory: w·n·d·m_0 bytes of buckets plus the largest iteration's
    request buffer, w' · max_i n · (left segments of iteration i) · m_i
    bytes, plus O(n·d) lengths and counters.  Each width is 2 if and only
    if every value its buffer stores fits in 16 bits, else 4: w = 2 when
    the ids fit (n <= 2^16), w' = 2 when the bucket indices the requests
    carry fit (n·d <= 2^16).  At the robust DHT's 4096 supernodes (k = 4,
    d = 6) both are 2; the hypercube at n = 8192 (d = 13) has w = 2 and
    w' = 4.  Besides those buffers and the
    returned samples nothing is allocated per draw. *)

val token_walk :
  trace:Simnet.Trace.t ->
  k:int ->
  n:int ->
  d:int ->
  redraw:(int -> int -> int) ->
  Sampling_result.t
(** The baseline d-round token walk behind {!run_plain} and
    {!Rapid_hypercube.run_plain}: each node releases [k] tokens; in round
    [i] a holder at [u] moves the token to [redraw u i] (sending a message
    unless it stays put); one final round reports endpoints to the
    origins.  [trace] receives one [Round] event per round. *)

val run :
  ?eps:float ->
  ?c:float ->
  rng:Prng.Stream.t ->
  Topology.Kary_hypercube.t ->
  Sampling_result.t
(** Defaults [eps = 0.5], [c = 2.0], as in {!Rapid_hypercube.run};
    [rounds = 2 ceil(log2 d)]; [walk_length] reports [d].  Phase 1 draws
    each bucket's digits with one [Prng.Stream.fill_words] call over the
    k-entry table [rest + digit·k^j] (u with digit j replaced), the same
    draws as one [Prng.Stream.int rng k] per slot in slot order. *)

val run_plain :
  k:int -> rng:Prng.Stream.t -> Topology.Kary_hypercube.t -> Sampling_result.t
(** Baseline d-round token walk: in round i the holder redraws digit i
    uniformly (forwarding the token to the corresponding neighbor unless the
    digit is unchanged); one final round reports endpoints. *)

(** Robust DHT over a reconfigured k-ary hypercube (Section 7.2).

    Servers are organized into representative groups, one per supernode of a
    d-dimensional k-ary hypercube (Definition 1), exactly as the Section 5
    network is built over the binary hypercube.  Every key hashes to a
    supernode; the key's data is replicated at all members of that group
    (logarithmic redundancy).  A request enters at any non-blocked server
    and routes by dimension correction — each hop moves to a neighboring
    group that agrees with the target on one more coordinate — giving at
    most d = O(log n / log k) hops; a hop only needs one non-blocked member
    in the next group, and coordinates can be corrected in any order, so
    routing detours around starved groups.

    Substitution note (see DESIGN.md): the internals of RoBuSt [11] (coding,
    probing schedules) are replaced by plain replication; data is keyed to
    supernodes, so reconfiguring which *servers* represent a supernode never
    moves data between supernodes — the paper's reason the DHT tolerates
    continuous reconfiguration.  A key's group is {!supernode_of_key}, a
    pure function of the key, so one table keyed by the key alone is
    exactly the union of the per-group stores; a reshuffle moves servers
    between groups and never touches it (in the paper, members hand their
    group's store over during the reconfiguration broadcast).

    Memory: the store is an open-addressing table of 2 words per slot,
    filled to between 3/8 and 3/4 once it has grown, plus one byte arena
    holding each value behind its LEB128 length (1 byte below 128, 2
    below 16,384).  An append that finds the arena full compacts the live
    records into a fresh arena of twice their size, so the arena follows
    the live bytes, not the number of overwrites.  An overwrite that fits
    goes in place; values that shrink in place leave their slack until
    the next compaction.  The store starts at 16 slots and 256 bytes,
    whatever n.  At the end of perfbench's [social-posts] (seed 1,
    n = 4096) it holds 269,956 entries in 524,288 slots (8 MiB) and a
    3.4 MiB arena for 2.3 MiB of live records: about 44 bytes an
    entry. *)

type t

val create : ?c:float -> ?k:int -> rng:Prng.Stream.t -> n:int -> unit -> t
(** [k] (default 4) is the arity; [c] (default 1.0) fixes the supernode
    count k^d <= n / (c log2 n).  Servers are scattered uniformly. *)

val n : t -> int
val k : t -> int
val dimension : t -> int
val supernode_count : t -> int
val group_of : t -> int array
(** Each server's supernode, in a fresh array the caller may keep. *)

val epoch : t -> int
(** How many {!reshuffle}s have run: 0 after {!create}, one more after
    each.  The assignment changes only in a reshuffle, so two calls of
    {!group_of} at the same epoch return equal arrays; an observer that
    copied the assignment at epoch [e] need not copy it again until the
    epoch moves.  Views carry the same counter. *)

val cube : t -> Topology.Kary_hypercube.t
val supernode_of_key : t -> int -> int

val group_members : t -> int -> int array
(** Servers currently representing a supernode. *)

val peek : t -> int -> string option
(** Direct store lookup for a key at its owning supernode, bypassing
    routing — for harnesses and batch routers that have already done the
    routing themselves. *)

val random_entry : t -> blocked:bool array -> int option
(** A uniformly random non-blocked server, the entry point of a request;
    [None] when every server is blocked.  Costs O(1) draws except when
    almost every server is blocked (bounded rejection sampling with a
    single O(n) survivor-scan fallback). *)

val random_entry_with :
  t -> rng:Prng.Stream.t -> blocked:bool array -> int option
(** Same, drawing from the caller's stream instead of the DHT's own — used
    by workload generators that need entry picks to be a deterministic
    function of their own request stream. *)

val reshuffle : t -> unit
(** One reconfiguration: scatter all servers to uniformly random groups
    (the Section 5 machinery, extended to the k-ary cube as the paper
    sketches).  Data stays with its supernode.  Every {!view} built before
    it goes stale. *)

type view
(** Which supernodes a blocked set leaves occupied (some member not
    blocked), one byte per supernode: the per-round state a request reads,
    since the adversary fixes the blocked set once per round (Section
    1.1).  A view is a snapshot: the occupancy is computed when the view
    is built, so a later change to the blocked array is not seen by the
    routing (the entry test of {!execute_at} reads the array itself, which
    the view keeps); build a new view after changing it.  A view goes
    stale when the DHT reshuffles, since the groups it summarizes are
    gone; {!execute_at} refuses a stale view. *)

val occupancy : t -> blocked:bool array -> view
(** [occupancy t ~blocked] is the view of [blocked] ([true] = blocked
    server) over [t]'s current groups.  Each group's scan stops at its
    first non-blocked member, so it costs O(supernodes + blocked servers)
    and allocates one byte per supernode.  Raises [Invalid_argument] if
    [blocked] does not have one cell per server. *)

type op = Read of int | Write of int * string

type op_result = {
  ok : bool;
      (** the request reached the responsible group (a read of an absent
          key is still [ok = true] with [value = None]) *)
  hops : int;  (** group-to-group hops used (<= d on success) *)
  value : string option;  (** for reads *)
}

val execute : t -> blocked:bool array -> op -> op_result
(** Execute one operation from a uniformly random non-blocked entry server.
    Fails only if no entry exists or routing hits a coordinate whose every
    remaining correction order is starved.  Builds its own {!view} for the
    one request: a caller serving many requests under one blocked set
    should build the view once and call {!execute_at}. *)

val execute_at :
  t -> view:view -> ?load:int array -> entry:int -> op -> op_result
(** Execute one operation from a caller-chosen entry server (an entry
    blocked in the view's array yields [ok = false] without routing).
    [load], if given, has one cell per supernode and accumulates
    per-group congestion as in {!execute_batch}.  Raises
    [Invalid_argument] if [view] is stale (built before the last
    {!reshuffle}, or for another DHT's size) or [entry] is out of range.

    Cost: O(d) hops of O(d) digit comparisons each; the destination check
    and each hop's probe of its target group read one byte of the view.
    Digits and strides come from tables built once in {!create} (d words
    per supernode), so a hop does no division.  The call allocates
    nothing beyond its [op_result] and, for a read that finds its key,
    the [Some] around the value and the value itself, copied out of the
    store; every result without a value is a record shared by all
    results with its hop count.  A caller that passes [?load] as a
    preallocated option avoids boxing it per call. *)

type batch_result = {
  served : int;
  failed : int;
  max_hops : int;
  max_group_load : int;
      (** messages handled by the busiest group — the congestion bound of
          Theorem 8 *)
}

val execute_batch : t -> blocked:bool array -> op list -> batch_result
(** Serve a whole batch (at most O(1) ops per non-blocked server in the
    intended regime) under one {!view}, accounting per-group
    congestion. *)

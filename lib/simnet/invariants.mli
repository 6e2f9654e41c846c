(** Structural invariant checking for reconfigurable overlays.

    The reconfiguration drivers promise two things after every epoch or
    window: each rebuilt Hamilton cycle is well-formed (a single cycle
    covering exactly the new node set), and the surviving topology is
    connected.  Under the paper's fault-free model both hold by
    construction; under an injected fault plan ({!Faults}) they are exactly
    the properties that must *never* fail silently — a driver that cannot
    guarantee them reports a typed {!violation} instead of handing out a
    wrong topology.

    The checkers are pure and topology-agnostic (successor arrays and
    neighbor functions), so they live in [simnet] below the protocol
    layer. *)

type violation =
  | Successor_out_of_range of { cycle : int; node : int; succ : int }
      (** [succ] is not a node of the new network *)
  | Successor_not_injective of { cycle : int; node : int; succ : int }
      (** two nodes share a successor: the "cycle" branches *)
  | Not_single_cycle of { cycle : int; reached : int; size : int }
      (** following successors from node 0 closes after [reached] < [size]
          hops: the permutation splits into several orbits *)
  | Size_mismatch of { cycle : int; got : int; expected : int }
  | Disconnected of { reachable : int; total : int }
      (** BFS from the lowest live node reaches only [reachable] of
          [total] *)

val describe : violation -> string
(** One-line human-readable rendering. *)

val kind_of : violation -> string
(** Stable wire name of the violation's constructor
    ([successor_out_of_range], [successor_not_injective],
    [not_single_cycle], [size_mismatch], [disconnected]) — the [kind]
    field of {!event} and the vocabulary of {!Corruption.advertised}. *)

val event : violation -> Trace.event
(** The typed trace event for a violation: a [Note] named
    ["invariant/violation"] carrying the violation kind and its numbers. *)

val check_cycle : ?cycle:int -> int array -> (unit, violation) result
(** Validate one successor array: every entry in range, injective, and a
    single cycle through all nodes.  [cycle] (default 0) only labels the
    violation. *)

val check_cycles : m:int -> int array array -> (unit, violation) result
(** Validate a family of successor arrays over the same [m] nodes (the
    H-graph shape rebuilt by Algorithm 3): sizes match and each array
    passes {!check_cycle}. *)

val check_cycle_all : ?cycle:int -> int array -> violation list
(** {e Every} defect of one successor array, in deterministic order: each
    out-of-range entry and each successor collision in node order first;
    then — only when the array is a clean permutation, since
    orbit-chasing a broken map is meaningless — one [Not_single_cycle] per
    orbit beyond the one containing node 0 ([reached] is that orbit's
    length).  {!check_cycle} stops at the first of these; this list lets
    corruption triage report all of them.  [[]] iff {!check_cycle}
    returns [Ok ()]. *)

val check_cycles_all : m:int -> int array array -> violation list
(** All defects of a cycle family: per cycle, a [Size_mismatch] when its
    length differs from [m] plus its {!check_cycle_all} list. *)

val check_all : m:int -> int array array -> violation list
(** {!check_cycles_all} followed by the connectivity violation, if any,
    of the union multigraph of the successor arrays over [m] nodes
    (following only in-range pointers, both directions: the part of a
    corrupted topology a node can still route over) — the complete
    defect list of a (possibly corrupted) topology, and the convergence
    oracle of {!Core.Stabilize}: a state is repaired exactly when this
    is [[]]. *)

val reachable : n:int -> start:int -> neighbors:(int -> int array) -> int
(** Number of nodes reachable from [start] (including it) following
    [neighbors]. *)

val check_connected :
  n:int -> neighbors:(int -> int array) -> (unit, violation) result
(** BFS connectivity over an arbitrary adjacency function ([n = 0] is
    vacuously connected). *)

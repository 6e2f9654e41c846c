(** H-graphs (Section 2.2): undirected multigraphs whose edge set is the
    union of d/2 oriented Hamilton cycles over the node set, for an even
    constant degree d >= 8.  A uniformly random member of H_n is obtained by
    drawing the cycles independently and uniformly at random.

    Each cycle keeps its orientation: every node knows its predecessor and
    successor in every cycle, which Algorithm 3 (network reconfiguration)
    relies on. *)

type t

val random : Prng.Stream.t -> n:int -> d:int -> t
(** Uniformly random H-graph.  Requires [n >= 3] and even [d >= 2] (the
    paper wants d >= 8 for its constants; smaller d is allowed here for
    tests). *)

val of_cycles : int array array -> t
(** [of_cycles succs] builds an H-graph from explicit successor arrays, one
    per cycle; [succs.(c).(v)] is the successor of [v] in cycle [c].  Raises
    [Invalid_argument] unless every array describes a single Hamilton cycle
    over the same node set. *)

val n : t -> int
val degree : t -> int
(** d = 2 * number of cycles. *)

val cycles : t -> int
(** Number of Hamilton cycles, d/2. *)

val succ : t -> cycle:int -> int -> int
val pred : t -> cycle:int -> int -> int

val succ_array : t -> cycle:int -> int array
(** Copy of a cycle's successor table. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v e] is the far endpoint of [v]'s edge [e] in [0, d): the
    successor in cycle [e / 2] for even [e], else the predecessor. *)

val random_neighbor : t -> Prng.Stream.t -> int -> int
(** Uniform step of the simple random walk: [neighbor t v e] for a uniform
    edge [e] (one draw of [Prng.Stream.int rng d]). *)

val to_graph : t -> Graph.t
(** The underlying undirected multigraph (2 parallel edges arise where two
    cycles share an edge or where n = 2 would degenerate — excluded by
    [n >= 3]). *)

val is_hamilton_cycle : int array -> bool
(** Whether a successor array describes one cycle through all nodes. *)

(** Breadth-first search utilities: connectivity (optionally restricted to a
    surviving subset of nodes), components, distances, and diameter. *)

val distances : ?alive:(int -> bool) -> Graph.t -> int -> int array
(** [distances g src] gives hop counts from [src]; unreachable (or dead)
    nodes get [-1].  When [alive] is supplied, the search is confined to the
    induced subgraph on alive nodes; if [src] itself is dead, everything is
    [-1]. *)

val is_connected : ?alive:(int -> bool) -> Graph.t -> bool
(** Whole graph connected (restricted to alive nodes).  A graph with zero
    alive nodes counts as connected (vacuously), matching the paper's "the
    network restricted to its non-blocked nodes is connected". *)

val components : ?alive:(int -> bool) -> Graph.t -> int array list
(** The alive vertex sets of the connected components, largest first. *)

val diameter_double_sweep : Graph.t -> Prng.Stream.t -> int
(** Lower bound on the diameter from a few BFS double sweeps; cheap and
    usually tight on expanders.  Returns [-1] when disconnected. *)

(** Disjoint-set forest with union by rank and path compression: the
    independent oracle that the topology tests cross-check
    {!Topology.Bfs} connectivity results against. *)

type t

val create : int -> t
val find : t -> int -> int
val union : t -> int -> int -> unit
val same : t -> int -> int -> bool
val component_count : t -> int
(** Number of disjoint sets over the whole universe. *)

val component_count_among : t -> int array -> int
(** Number of distinct sets represented among the given elements. *)

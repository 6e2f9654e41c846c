(** The d-dimensional k-ary hypercube of Definition 1 (Section 7.2):
    V = {0, ..., k-1}^d, with an edge iff the labels differ in exactly one
    coordinate.  Degree (k-1) d, diameter d, k^d nodes.  Nodes are encoded
    as base-k integers, digit [i] being coordinate [i]. *)

type t

val create : k:int -> d:int -> t
(** Requires [k >= 2], [d >= 1], and [k^d <= 2^26]. *)

val k : t -> int
val d : t -> int
val node_count : t -> int

val coord : t -> int -> int -> int
(** [coord t v i] is coordinate [i] (0-based digit) of node [v]. *)

val with_coord : t -> int -> int -> int -> int
(** [with_coord t v i c] replaces coordinate [i] of [v] by [c]. *)

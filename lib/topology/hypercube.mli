(** The d-dimensional binary hypercube: nodes are the integers
    [0 .. 2^d - 1] read as bit vectors; two nodes are adjacent iff they
    differ in exactly one bit (Section 2.2 of the paper).

    Bit numbering: dimension [i] (0-based, [0 <= i < d]) is bit [i] of the
    integer label.  The paper indexes coordinates from 1; our APIs are
    0-based throughout and the experiments account for the shift. *)

type t

val create : int -> t
(** [create d] for [0 < d <= 26] (2^26 nodes is far beyond any experiment
    here). *)

val dimension : t -> int
val node_count : t -> int
val flip : t -> int -> int -> int
(** [flip t v i] = the neighbor of [v] across dimension [i]. *)

val neighbors : t -> int -> int array

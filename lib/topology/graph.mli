(** Compact mutable undirected multigraph over nodes [0 .. n-1].

    This is the common currency of the repository: topology generators
    produce one, and the analysis routines (connectivity, diameter, spectral
    gap) consume one.  Parallel edges are kept (the paper's H-graphs are
    multigraphs); self-loops are rejected. *)

type t

val create : n:int -> t
val n : t -> int
val add_edge : t -> int -> int -> unit
(** Adds an undirected edge; parallel edges accumulate.  Raises
    [Invalid_argument] on out-of-range endpoints or self-loops. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Visits each incident edge's far endpoint; a parallel edge is visited as
    many times as its multiplicity. *)

val neighbors : t -> int -> int array

val is_regular : t -> int option
(** [Some d] if every node has degree [d]. *)

val edges : t -> (int * int) array
(** Each undirected edge once, with smaller endpoint first; parallel edges
    repeated. *)

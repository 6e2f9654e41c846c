(** Growable integer vectors (OCaml 5.1 predates [Dynarray]); the building
    block for adjacency lists and mailboxes. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
(** Raises [Invalid_argument] when out of bounds. *)

val clear : t -> unit
(** Drops all elements, keeps capacity. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_array : t -> int array

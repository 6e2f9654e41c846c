(** The ids an adversary picked this round, and the random fill every
    adversary spends a random budget with.  One stamp per id and a round
    counter: a round allocates and clears nothing. *)

type t

val create : unit -> t

val start : t -> n:int -> unit
(** Begin a round over the ids [0, n), none picked (resizes if [n] moved). *)

val take : t -> int -> bool
(** Pick an id; [false] if this round picked it already. *)

val fill : ?avoid:int -> t -> Prng.Stream.t -> int -> into:bool array -> unit
(** [fill t rng k ~into] picks [k] more ids, drawing [Prng.Stream.int rng n]
    per attempt and rejecting one picked already or equal to [avoid], and
    sets [into.(v)] for each.  [k] must not exceed the ids left. *)

(** Online (streaming) first and second moments using Welford's algorithm,
    numerically stable for long runs. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float
(** Mean of the observations so far; 0 if none. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val min : t -> float
(** Smallest observation; [infinity] if none. *)

val max : t -> float
(** Largest observation; [neg_infinity] if none. *)

val merge : t -> t -> t
(** Combine two accumulators as if all observations were fed to one. *)

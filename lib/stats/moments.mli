(** Online (streaming) mean using Welford's update, numerically stable
    for long runs. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit

val mean : t -> float
(** Mean of the observations so far; 0 if none. *)

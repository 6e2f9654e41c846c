(** xoshiro256**: the main PRNG engine.  Fast, 256 bits of state, passes
    BigCrush; period 2^256 - 1.  Reference: Blackman & Vigna, "Scrambled
    linear pseudorandom number generators", ACM TOMS 2021. *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed s] expands the 64-bit seed [s] into a full 256-bit state using
    SplitMix64, as recommended by the xoshiro authors. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state a b c d] builds a generator from an explicit state.  At least
    one word must be non-zero. Raises [Invalid_argument] otherwise. *)

val copy : t -> t
(** Independent deep copy: the copy and the original produce the same
    subsequent stream but do not share state. *)

val next : t -> int64
(** Next 64 random bits. *)

val below : t -> int -> int
(** [below t bound] is uniform on [0, bound): 63 random bits with the final
    incomplete block rejected, so the result is exactly uniform.  Allocates
    nothing.  Raises [Invalid_argument] if [bound <= 0]. *)

val bool : t -> bool
(** The low bit of the next output.  Allocates nothing. *)

val float : t -> float -> float
(** [float t bound] is the top 53 bits of the next output mapped to [0, 1)
    and scaled by [bound].  Only the returned float is allocated. *)

(** Deterministic random streams.

    A {!t} is a mutable source of randomness.  Streams are cheap to create
    and can be {!split} into statistically independent children, which is how
    every simulated node, adversary, and experiment trial gets its own
    reproducible randomness: the whole repository never touches the global
    [Random] state. *)

type t

val of_seed : int64 -> t
(** Root stream from an explicit seed. *)

val split : t -> t
(** [split t] derives a child stream.  The child's future output is
    independent of the parent's (they are keyed by distinct SplitMix64
    outputs), and splitting advances the parent so successive splits give
    distinct children. *)

val split_n : t -> int -> t array
(** [split_n t k] derives [k] children at once. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound).  Raises [Invalid_argument] if
    [bound <= 0].  Uses rejection sampling, so the result is exactly
    uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val fill_words :
  t -> width:int -> int array -> Bytes.t -> pos:int -> len:int -> unit
(** [fill_words t ~width table b ~pos ~len] is [len] successive
    [table.(int t (Array.length table))] draws in one call, stored as
    [width]-byte little-endian words at word offsets [pos .. pos + len - 1]
    of [b]: the same values and the same stream position afterwards.
    [width] is 2 or 4, so a buffer whose values all fit in 16 bits takes
    half the bytes; the table maps each draw to the value stored, e.g. an
    edge index to a neighbor's id.  Allocates nothing.  Raises
    [Invalid_argument] if [width] is neither 2 nor 4, [table] is empty, an
    entry is outside [0, 2^16) at width 2 or [0, 2^31) at width 4, [pos]
    or [len] is negative, or the range does not fit in [b]. *)

val shuffle_tail_words :
  t -> width:int -> Bytes.t -> pos:int -> len:int -> count:int -> unit
(** [shuffle_tail_words t ~width b ~pos ~len ~count] is [count]
    Fisher–Yates steps from the end of the [len] [width]-byte words at word
    offset [pos] of [b], in one call: step [x] (from 0) swaps word
    [pos + int t (len - x)] with word [pos + len - 1 - x], so the tail
    holds the picks, first pick last.  With [count = len - 1] it consumes
    exactly the draws {!shuffle_in_place} makes on the same [len] elements
    and leaves them in the same order.  Allocates nothing.  Raises
    [Invalid_argument] if [width] is neither 2 nor 4, [pos], [len] or
    [count] is negative, [count > len], or the range does not fit in
    [b]. *)

val bits53 : t -> int
(** The top 53 bits of the next 64-bit output, uniform on [0, 2^53):
    [float t bound] is [bound *. (float_of_int (bits53 t) *. 0x1p-53)] on
    the same stream state.  Allocates nothing, so a distribution kernel
    in another module ({!Dist}) can keep its floats unboxed; {!float}'s
    result is boxed (2 words a draw). *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]: [float t 1.0 < p] for
    [0 < p < 1], one draw; no draw at all for [p <= 0] or [p >= 1].
    Allocates nothing. *)

val shuffle_in_place : t -> 'a array -> unit
(** Uniform Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_distinct : t -> int -> k:int -> int array
(** [sample_distinct t n ~k] draws [k] distinct values uniformly from
    [0, n).  Raises [Invalid_argument] if [k > n] or [k < 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  Raises [Invalid_argument] on an
    empty array. *)

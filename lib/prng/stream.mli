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

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

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

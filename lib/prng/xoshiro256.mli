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

val bits53 : t -> int
(** The top 53 bits of the next output, an int in [0, 2^53).  Allocates
    nothing: a caller that needs a uniform float computes
    [float_of_int (bits53 t) *. 0x1p-53] itself, unboxed, where a float
    returned from another module would be boxed. *)

val fill_words :
  t -> width:int -> int array -> Bytes.t -> pos:int -> len:int -> unit
(** [fill_words t ~width table b ~pos ~len] draws [len] values and stores
    each as a [width]-byte little-endian word of [b], the [i]-th at byte
    [width·(pos + i)]: the [i]-th word is
    [table.(below t (Array.length table))], with the same draws and the
    same final state as [len] successive [below] calls, rejections
    included.  [width] is 2 or 4; the table maps draws to stored values
    (the identity table stores the draws).  The state stays in locals for
    the whole call; allocates nothing.  Raises [Invalid_argument] if
    [width] is neither 2 nor 4, [table] is empty, an entry of [table] is
    outside [0, 2^16) at width 2 or outside [0, 2^31) at width 4, [pos] or
    [len] is negative, or words [pos .. pos + len - 1] do not fit in
    [b]. *)

val shuffle_tail_words :
  t -> width:int -> Bytes.t -> pos:int -> len:int -> count:int -> unit
(** [shuffle_tail_words t ~width b ~pos ~len ~count] runs [count]
    Fisher–Yates steps from the end of the [len] [width]-byte words
    starting at word [pos]: step [x] (from 0) swaps word
    [pos + below t (len - x)] with word [pos + len - 1 - x].  The last
    [count] words then hold the draws, first draw last; [count = len - 1]
    is a full uniform shuffle.  Same draws and final state as the per-call
    loop, at either width; allocates nothing.  Raises [Invalid_argument]
    if [width] is neither 2 nor 4, [pos], [len] or [count] is negative,
    [count > len], or the words do not fit in [b]. *)

(** m-bit identifier ring arithmetic (Chord, Stoica et al. 2001).

    Identifiers live on the ring [0 .. 2^m - 1]; both nodes and keys hash
    into the same space (consistent hashing), and every interval test
    wraps.  All functions are pure; the hash is {!Prng.Splitmix64.mix} of
    a salted input, so id assignment is a deterministic function of the
    ring's salt. *)

val max_bits : int
(** Largest supported [m]: 61, the widest ring whose [2^m] and [mask]
    stay positive in a 63-bit native [int] ({!Ring.create}'s default [m]
    exceeds 30 from n = 2{^15} on). *)

val space : int -> int
(** [space m] = [2^m].  Raises [Invalid_argument] outside [1..max_bits]. *)

val mask : int -> int
(** [space m - 1]. *)

val node_id : m:int -> salt:int64 -> ?attempt:int -> int -> int
(** Hash node index into the ring.  [attempt] is the collision-probe
    counter: re-hash with [attempt + 1] until the id is unused. *)

val key_id : m:int -> salt:int64 -> int -> int
(** Hash an application key into the ring (distinct tag from node ids). *)

val in_oc : int -> int -> int -> bool
(** [in_oc a b x]: x in the half-open arc (a, b] walked clockwise.
    [a = b] denotes the full ring (every x qualifies). *)

val in_oo : int -> int -> int -> bool
(** [in_oo a b x]: x in the open arc (a, b).  [a = b] denotes the full
    ring minus the endpoint. *)

val dist : m:int -> int -> int -> int
(** Clockwise distance from [a] to [b]: [(b - a) mod 2^m]. *)

val finger_start : m:int -> int -> int -> int
(** [finger_start ~m id i] = [(id + 2^i) mod 2^m], the start of finger
    interval [i].  Raises [Invalid_argument] if [i] is outside [0, m). *)

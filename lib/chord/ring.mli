(** Whole-network Chord routing state plus the brute-force oracle.

    A {!t} holds every node's mutable routing tables (successor list of
    length [r], finger table, predecessor) over a static id assignment:
    node indices hash once into the m-bit space at {!create} and never
    move — the property the stale-view adversary exploits, and the
    structural contrast with the paper's reconfiguration networks, whose
    assignment is redrawn every period.

    [alive] is membership (churned-out nodes are not members and own no
    keys); transient unavailability (crash, DoS blocking) is the caller's
    [avail] predicate and does not move ownership.  The oracle functions
    ({!oracle_owner}, {!oracle_next}, {!holds}) compute ground truth from
    the sorted id order and the membership bitmap, independent of any
    node's believed tables — tests and the replica-placement model use
    them; routing never does. *)

type node = {
  idx : int;
  id : int;
  mutable pred : int;  (** node index, [-1] = unknown *)
  succs : int array;  (** node indices ascending clockwise; [-1] = empty *)
  fingers : int array;  (** [fingers.(i)] ~ successor(id + 2^i); [-1] = unknown *)
  mutable next_finger : int;  (** round-robin cursor for [fix_fingers] *)
}

type t

val create :
  ?m:int -> ?fingers:int -> ?succs:int -> rng:Prng.Stream.t -> n:int -> unit -> t
(** Hash [n] node indices into the [2^m] space (salt drawn from [rng];
    collisions probed deterministically).  Defaults:
    [m = max 8 (2 * ceil(log2 n) + 2)] (enough slack that collisions are
    rare and arcs are well separated), [fingers = m] (clamped to [m]),
    [succs = max 2 (ceil(log2 n))] (the paper's O(log n) successor list,
    clamped to [n - 1]).  All nodes start alive with empty routing
    state; call {!reset_ideal} or {!Net.join} to populate.  Raises [Invalid_argument]
    if [n < 2] or [2^m < 2 n]. *)

val n : t -> int
val m : t -> int
val r : t -> int
(** Successor-list length. *)

val nf : t -> int
(** Finger-table length ([<= m]). *)

val node : t -> int -> node
val id : t -> int -> int
val key_id : t -> int -> int
(** Hash an application key with this ring's salt. *)

val is_alive : t -> int -> bool
val set_alive : t -> int -> bool -> unit
val alive_count : t -> int
val alive : t -> bool array
(** The live membership bitmap (not a copy). *)

val reset_ideal : t -> unit
(** Give every alive node the fully converged routing state (successor
    lists, predecessors and fingers all oracle-exact over the current
    membership).  Dead nodes keep their stale tables. *)

val owner_with : t -> alive:bool array -> int -> int
(** Brute-force successor of an identifier under an arbitrary membership
    mask: the first node in [alive] whose id is >= the identifier
    (cyclically); [-1] if the mask is empty. *)

val oracle_owner : t -> int -> int
(** {!owner_with} over the ring's own membership. *)

val oracle_next : t -> int -> int
(** The true successor {e node} of node [v]: first alive member strictly
    clockwise after [v] (excluding [v] itself); [-1] if none. *)

val holds : t -> int -> key_id:int -> bool
(** Whether node [v] stores a replica of [key_id]: [v] is alive and among
    the first [r] alive members starting at the key's oracle owner.
    Models Chord's transfer-on-membership-change replica placement. *)

val succ_ok_fraction : t -> float
(** Fraction of alive nodes whose believed successor equals the oracle's
    (1.0 when fewer than two members). *)

val ring_connected : t -> bool
(** Whether following each node's first live believed successor from the
    lowest-id member visits every member. *)

val pick : Prng.Stream.t -> ok:(int -> bool) -> int -> int option
(** One bounded-rejection draw (then deterministic scan fallback) of a
    node index in [0, n) satisfying [ok]; [None] if none qualifies.
    Mirrors [Robust_dht.random_entry_with]'s draw discipline. *)

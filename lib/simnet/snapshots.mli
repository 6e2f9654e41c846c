(** Delayed observation for t-late adversaries (Section 1.1): the adversary
    may only use topological information that is at least [lateness] rounds
    old.  The simulation pushes one topology snapshot per round; [view]
    returns the newest snapshot old enough for the adversary to see.

    Beyond the paper's fixed integer t, lateness can be a per-round seeded
    {e draw} from a {!staleness} distribution ({!create_drawn}), making
    "almost up-to-date" (expected t < 1) a real experimental axis: with
    [Mixed 0.25] the adversary sees the current round's topology three
    rounds out of four. *)

type staleness =
  | Fixed of int  (** the paper's t-late adversary *)
  | Mixed of float
      (** expected lateness [f]: [floor f] plus a Bernoulli([f - floor f])
          extra round, drawn per push *)
  | Uniform of int * int  (** uniform on the inclusive range [lo..hi] *)

val staleness_max : staleness -> int
(** Largest lateness the distribution can draw (sizing for the ring). *)

val staleness_of_string : string -> (staleness, string) result
(** ["3"] → [Fixed 3]; ["2.5"] → [Mixed 2.5] (any float literal with a
    ['.'] or exponent); ["1..4"] → [Uniform (1, 4)]. *)

val staleness_to_string : staleness -> string
(** Inverse of {!staleness_of_string} ([Mixed] keeps its ['.'], so
    [Mixed 3.] renders as ["3.0"], distinct from [Fixed 3]). *)

type 'a t

val create : lateness:int -> 'a t
(** [lateness = 0] models the 0-late (fully informed) adversary.  Consumes
    no randomness, ever — byte-compatible with pre-staleness behavior. *)

val create_drawn : staleness:staleness -> rng:Prng.Stream.t -> 'a t
(** Lateness redrawn from [staleness] on every {!push}.  [Fixed n] keeps
    [rng] untouched (identical to [create ~lateness:n]); the other
    distributions consume draws only from [rng], which the caller should
    dedicate (split) to this buffer. *)

val staleness : 'a t -> staleness

val current_lateness : 'a t -> int
(** The lateness in force for the current round (last draw). *)

val push : 'a t -> 'a -> unit
(** Record the snapshot for the next round (first push = round 0), then
    redraw the round's lateness. *)

val view : 'a t -> 'a option
(** Newest snapshot that is at least the current drawn lateness rounds
    old, i.e. if [k] snapshots have been pushed (rounds [0..k-1], current
    round [k-1]), the snapshot of round [k - 1 - current]; [None] while no
    snapshot is old enough. *)

val view_at : 'a t -> int -> 'a option
(** [view_at t r] is the snapshot of round [r] if the adversary may see it
    (i.e. it is old enough under the current draw) and it is still
    retained. *)

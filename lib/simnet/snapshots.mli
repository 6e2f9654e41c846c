(** Delayed observation for t-late adversaries (Section 1.1): the adversary
    may only use topological information that is at least [lateness] rounds
    old.  The simulation pushes one topology snapshot per round; [view]
    returns the newest snapshot old enough for the adversary to see.

    Beyond the paper's fixed integer t, lateness can be a per-round seeded
    {e draw} from a {!staleness} distribution ({!create}), making
    "almost up-to-date" (expected t < 1) a real experimental axis: with
    [Mixed 0.25] the adversary sees the current round's topology three
    rounds out of four.

    Memory: a ring fed by {!observe} holds one snapshot per topology epoch
    among its last [max lateness + 1] rounds: [1 + ceil (lateness / period)]
    with a reconfiguration every [period] rounds. *)

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

val create : ?staleness:staleness -> lateness:int -> Prng.Stream.t -> 'a t
(** Without [staleness] the lateness is [lateness] every round (0: fully
    informed) and the stream is untouched.  With it, [lateness] is ignored
    and each {!push} redraws the lateness from a child split off the stream,
    [Fixed _] included, so the caller's other draws never move. *)

val staleness : 'a t -> staleness

val current_lateness : 'a t -> int
(** The lateness in force for the current round (last draw). *)

val push : 'a t -> 'a -> unit
(** Record the snapshot for the next round (first push = round 0), then
    redraw the round's lateness. *)

val observe : 'a t -> epoch:int -> (unit -> 'a) -> unit
(** Push [build ()] if [epoch] moved since the last call (or on the first),
    else the newest snapshot again, allocating nothing.  A ring fed by
    [observe] takes no {!push}. *)

val view : 'a t -> 'a option
(** Newest snapshot that is at least the current drawn lateness rounds
    old, i.e. if [k] snapshots have been pushed (rounds [0..k-1], current
    round [k-1]), the snapshot of round [k - 1 - current]; [None] while no
    snapshot is old enough. *)

val view_at : 'a t -> int -> 'a option
(** [view_at t r] is the snapshot of round [r] if the adversary may see it
    (i.e. it is old enough under the current draw) and it is still
    retained. *)

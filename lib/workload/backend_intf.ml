(** The request-plane contract between the round loop ({!Driver.serve})
    and an overlay backend.

    The loop owns the workload: admissions, retries, timeout/SLO
    accounting, the churn draw, the fault legs, and round/trace emission.
    A backend owns the overlay: how requests route and what they cost
    ({!S.get}/{!S.put}/{!S.publish}), what periodic structure change means
    ({!S.reconfigure}/{!S.maintain}), how the adversary binds to the
    topology ({!S.observe}/{!S.mark_attack}), and what a health probe
    reports ({!S.health}).  New overlays (Kademlia, per ROADMAP) plug in by
    implementing {!S}; the driver never pattern-matches on a concrete
    backend.

    Determinism contract: a backend must draw randomness only from the
    streams the driver hands it ([ctx.rng], [ctx.attack_rng], and the
    per-call [rng] arguments), must consume those streams identically for
    identical inputs, and must route every fault roll and trace event
    through [ctx.rt]. *)

type mode = Reconfig | Static

type chord_knobs = {
  fingers : int option;  (** finger-table length; [None] = id-space width m *)
  succs : int option;  (** successor-list length; [None] = backend default *)
  period : int option;  (** maintenance period; [None] = the driver period *)
}
(** Chord ring knobs.  [None] everywhere means "backend default", resolved
    in the Chord backend's [create] — the only place defaults are applied. *)

type ctx = {
  n : int;
  k : int;  (** cube arity of the robust DHT *)
  mode : mode;
  period : int;  (** reconfiguration / default maintenance period *)
  attack : Attack.strategy;
  frac : float;
  lateness : int;
  staleness : Simnet.Snapshots.staleness option;
  retries : int;  (** the driver's retry budget (Chord maintenance reuses it) *)
  spec : Spec.t;  (** request spec; [spec.keys] bounds the plain key space *)
  hot_keys : (int * float) array option;
      (** overrides the adversary's hot-key ranking: [(key, weight)] pairs,
          hottest first ([None] = rank [0 .. spec.keys-1] by [spec]
          popularity).  Composite applications pass their real hot keys. *)
  chord : chord_knobs;  (** ring knobs (ignored by non-Chord backends) *)
  rng : Prng.Stream.t;  (** backend topology stream (DHT scatter / ring ids) *)
  attack_rng : Prng.Stream.t;  (** the adversary's stream *)
  rt : Simnet.Runtime.t;  (** fault legs, crash state, trace emission *)
  blocked : bool array;
      (** the driver-owned per-round blocked set; backends read it during
          request execution and write it in {!S.mark_attack} *)
}

type op_result = {
  ok : bool;
  hops : int;  (** routing hops used (accumulated over a chained op) *)
  waits : int;  (** timeout rounds spent on dead contacts (0 on robust) *)
  value : string option;  (** for reads / sequence probes *)
}

type round_emit = {
  req_msgs : int;  (** request-plane messages this round (drives hop_msgs) *)
  msgs : int;  (** total messages incl. maintenance (drives the Round event) *)
  bits : int;  (** total bits this round *)
  max_node_bits : int;
  max_node_msgs : int;
}

module type S = sig
  type t

  val create : ctx -> t

  val note_fields : t -> (string * Simnet.Trace.value) list
  (** Backend-specific fields of the run-header note, spliced between the
      ["n"] field and the workload fields (empty on the robust backend so
      pre-refactor traces stay byte-identical). *)

  val reconfigure : t -> round:int -> unit
  (** Start-of-round structure change (robust: reshuffle when the period
      elapsed under [Reconfig]; chord: nothing — its analogue is
      {!maintain}). *)

  val observe : t -> unit
  (** The adversary's (delayed) observation of the current structure. *)

  val churn : t -> rng:Prng.Stream.t -> was_down:bool array -> down:bool array -> unit
  (** Epoch-boundary membership change: [down] is the freshly drawn churn
      set, [was_down] the previous epoch's.  Chord flips ring liveness and
      re-joins returners through a live introducer (consuming [rng]
      identically to the pre-refactor driver); robust needs nothing. *)

  val mark_attack : t -> into:bool array -> unit
  (** Spend the adversary's blocking budget into the blocked set. *)

  val begin_round : t -> unit
  (** Reset per-round counters (message tallies, congestion loads) and
      take whatever the round's requests read of the blocked set, which
      {!mark_attack} has just completed (robust: the occupancy view). *)

  val maintain : t -> unit
  (** One maintenance slice (chord: a staggered {!Chord.Net.tick} under
      [Reconfig], nothing under [Static]; robust: nothing). *)

  val entry : t -> rng:Prng.Stream.t -> int option
  (** A uniformly random available entry server drawn from [rng]. *)

  val get : t -> entry:int -> int -> op_result
  val put : t -> entry:int -> int -> string -> op_result

  val publish : t -> entry:int -> topic:int -> string -> op_result
  (** The three-op publish chain (counter read, payload write, counter
      write — counter last, so a retried attempt reuses the same
      sequence number). *)

  val last_seq : t -> entry:int -> topic:int -> op_result
  (** Probe a topic's publication counter ([value] holds the count). *)

  val emit_round : t -> round_emit
  (** Close the round's accounting (also folds the round's congestion into
      {!max_group_load}). *)

  val health : t -> (string * Simnet.Trace.value) list
  (** A cheap structural health probe (robust: supernode census; chord:
      successor-list integrity).  Only emitted by drivers that ask for it,
      so the pre-refactor trace goldens never see it. *)

  val max_group_load : t -> int
  (** Busiest supernode's messages within a single round so far (0 where
      the notion does not apply). *)
end

(** Message-level simulation of supernode protocols by representative
    groups (Section 5), on top of {!Simnet.Engine}.

    {!Dos_network} advances one canonical state per group and declares a
    window failed when a group starves — a behavioural shortcut justified
    in DESIGN.md.  This module is the unabridged version, used to validate
    that shortcut: every physical node really sends messages, blocked nodes
    really miss them, and divergent replicas really get reconciled.

    One supernode round costs two network rounds:

    - {e simulation round}: every in-sync available member of R(x) locally
      computes the supernode's step — with its {e own} coin flips, so
      proposals may differ (the paper allows this) — and sends its proposal
      (new state + outgoing supernode messages) to all members of R(x).
    - {e synchronization round}: every member that receives proposals
      adopts the one from the lowest-id sender (thereby (re)joining the
      simulation, which is how nodes recover after being blocked), forwards
      each outgoing supernode message to all members of the target group,
      and is in sync for the next simulation round.

    A supernode whose group produces no proposal in a simulation round has
    lost its state; the simulation marks it (and the run) failed, which is
    exactly the starvation criterion of Lemma 14. *)

type ('state, 'msg) protocol = {
  init : supernode:int -> rng:Prng.Stream.t -> 'state;
      (** local, round-free initialization (Phase 1 of Algorithm 2) *)
  step :
    supernode:int ->
    step_index:int ->
    'state ->
    inbox:(int * 'msg) list ->
    rng:Prng.Stream.t ->
    'state * (int * 'msg) list;
      (** one supernode round: consume messages from other supernodes
          (pairs of (source supernode, payload)), produce the new state and
          outgoing (destination supernode, payload) messages *)
  steps : int;  (** supernode rounds to execute *)
  state_bits : 'state -> int;  (** wire size of a state broadcast *)
  msg_bits : 'msg -> int;
}

type ('state, 'msg) t

val create :
  ?trace:Simnet.Trace.t ->
  ?faults:Simnet.Faults.plan ->
  rng:Prng.Stream.t ->
  n:int ->
  group_of:int array ->
  ('state, 'msg) protocol ->
  ('state, 'msg) t
(** [group_of] maps each of the [n] physical nodes to its supernode;
    supernodes are [0 .. max group_of].  Every group must be non-empty.
    [trace] (default {!Simnet.Trace.null}) receives one [Round] event per
    network round, from the simulation's own metrics, then a
    ["groupsim/sim"] / ["groupsim/sync"] [Span] per half of each
    supernode round; the underlying engine adds its [Fault] events.
    [faults] is handed to the engine: dropped proposals or bundles degrade
    members out of sync exactly like blocking does, and crashed members
    stop proposing — the redundancy argument of Lemma 14 then decides
    whether the group survives.  A delayed wire that arrives in a later
    supernode step than the one it was built for is late, and late means
    lost in the synchronous model: it is charged as received and
    otherwise ignored. *)

val network_rounds_total : _ t -> int
(** 2 * steps. *)

val finished : _ t -> bool

val run_round : ('state, 'msg) t -> blocked:bool array -> unit
(** Advance one network round (simulation and synchronization rounds
    alternate).  Raises [Invalid_argument] after the run has finished. *)

val run_all : ('state, 'msg) t -> blocked_for_round:(round:int -> bool array) -> unit
(** Drive every remaining round, querying the blocked set per round. *)

val lost_groups : _ t -> int list
(** Supernodes whose state was lost (no available in-sync proposer in some
    simulation round); empty iff the simulation is faithful so far. *)

val state_of : ('state, 'msg) t -> int -> 'state option
(** Canonical adopted state of a supernode; [None] if the group lost it. *)

val synced_members : _ t -> int -> int
(** Members of the group currently holding the canonical state. *)

val metrics : _ t -> Simnet.Metrics.t
(** Communication-work accounting of the simulation: every wire is priced
    once when it is built (a proposal at [state_bits] plus its outgoing
    messages, a bundle at its messages), each copy the engine accepts is
    charged to its sender and each delivered copy to its receiver. *)

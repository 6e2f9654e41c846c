(** The churn-resistant expander network of Section 4: nodes organized into
    an H-graph that is completely re-drawn every epoch by running d/2
    independent instances of Algorithm 3 (one per Hamilton cycle) on top of
    the rapid sampling primitive.

    An epoch bundles the O(log log n) rounds of one reconfiguration: the
    adversary's prescriptions (joins, introduced each to one current member;
    leaves) accumulated over those rounds are all integrated/excluded when
    the reconfiguration completes, exactly the delay-T semantics of the
    model (Section 1.1).  Leaving nodes keep relaying until the epoch ends
    and are then dropped; joining nodes are delegated to their introducer,
    which samples an extra target for each of them in Phase 1. *)

type t

type epoch_report = {
  n_before : int;
  n_after : int;
  joined : int;
  left : int;
  rounds : int;
      (** total communication rounds of the epoch: sampling rounds plus the
          slowest cycle's Algorithm-3 rounds (cycles run in parallel) *)
  sampling_underflows : int;
  sampling_retries : int;
      (** sampling re-attempts under the retry policy (0 without one) *)
  sampling_escalations : int;
      (** sampling retries that raised the provisioning constant [c] *)
  sample_shortfall : int;
      (** Phase-1 draws served by a direct uniform fallback because the
          primitive's pool ran dry; 0 in a correctly provisioned run *)
  max_joiners_per_node : int;
  max_chosen : int;  (** Lemma 11 congestion, max over cycles *)
  max_empty_segment : int;  (** Lemma 12, max over cycles *)
  max_node_round_bits : int;  (** sampling communication work *)
  reconfig_bits : int;
      (** total bits of Algorithm-3 traffic, summed over the cycles *)
  reply_retries : int;
      (** pointer-doubling replies re-requested after a fault loss, summed
          over the cycles *)
  stale_pointers : int;
      (** nodes whose pointer-doubling stalled past the retry budget; > 0
          forces [valid = false] — a stale pointer never stitches a cycle *)
  valid : bool;
      (** every new cycle is a Hamilton cycle covering exactly the staying
          and joining nodes (checked constructively and by
          {!Simnet.Invariants.check_cycles}) *)
  connected : bool;  (** BFS-verified on the new topology *)
  reachable_fraction : float;
      (** fraction of the standing topology (new on success, old when the
          epoch failed) reachable from node 0 — per-epoch health *)
  failure : string option;
      (** human-readable reason for [valid = false] ([None] on success):
          a {!Reconfig.failure} or an {!Simnet.Invariants.violation} *)
}

type sampler = Rapid | Plain_walks
(** Which sampling primitive feeds Phase 1 of Algorithm 3.  [Rapid] is the
    paper's O(log log n)-round primitive; [Plain_walks] is ablation A1 —
    identical reconfiguration semantics, but the samples come from plain
    Theta(log n)-round token walks, so every epoch pays the walk length in
    rounds.  The measured gap is the paper's headline improvement. *)

val create :
  ?d:int ->
  ?sampler:sampler ->
  ?trace:Simnet.Trace.t ->
  ?faults:Simnet.Faults.plan ->
  ?retry:Retry.policy ->
  ?domains:int ->
  rng:Prng.Stream.t ->
  n:int ->
  unit ->
  t
(** Fresh network on [n] nodes with a uniformly random H-graph of degree
    [d] (default 8); [sampler] defaults to [Rapid].  [trace] (default
    {!Simnet.Trace.null}) records, per epoch, the sampling rounds, the
    reconfiguration phase spans, and a ["churn/epoch"] note with the
    outcome.

    [faults] is applied in full through {!Simnet.Runtime}: drop, duplicate
    and delay rates fire on the Phase-3 pointer-doubling reply legs of
    every epoch (see {!Reconfig.reconfigure}), and crash victims are
    forced to leave at the next epoch boundary.  Reorder (vacuous on
    single-reply legs) and crash-recover (a forced leaver cannot rejoin)
    are rejected with [Invalid_argument] rather than silently ignored.
    Fault streams are size-independently keyed, so the network growing
    past the initial [n] never aliases them.  [retry] (default
    {!Retry.fixed}) gives both the sampler (escalating re-runs) and the
    doubling replies (per-node re-issues) a recovery budget.  A reply loss
    past the budget fails the epoch with a typed reason in the report — the
    old topology stands, never a wrong cycle. *)

val size : t -> int
val graph : t -> Topology.Hgraph.t
val ids : t -> int array
(** [ids t].(p) is the persistent global id of the node at position [p]. *)

val epoch :
  t -> leaves:int array -> join_introducers:int array -> epoch_report
(** Run one reconfiguration epoch.  [leaves] are current positions
    prescribed to leave (duplicates ignored); [join_introducers] holds one
    current position per joining node (the member it is introduced to).
    Raises [Invalid_argument] if the surviving membership would fall below
    3 nodes.  On success the network state is replaced by the new H-graph. *)

val epoch_with_delegation :
  t ->
  leaves:int array ->
  join_introducers:[ `Member of int | `Joiner of int ] array ->
  epoch_report
(** Like {!epoch}, but a joiner may be introduced to another joiner of the
    same epoch ([`Joiner i] refers to index [i] in this array): per the
    model (Section 1.1), "any new node v introduced to a node w not yet in
    V will be delegated to the node in V that w was delegated (or
    introduced) to itself".  Introduction chains are resolved transitively
    to a member before the epoch runs; cycles among joiners (which no
    execution of the model can produce, since each introduction happens
    after its target's) are rejected with [Invalid_argument]. *)

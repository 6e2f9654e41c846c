(** The DoS-resistant overlay of Section 5.

    The n nodes are organized around a d-dimensional hypercube of
    supernodes, d maximal with 2^d <= n / (c log2 n).  Every node belongs to
    exactly one group R(x) of representatives of supernode x; group members
    form a clique and neighboring groups complete bipartite graphs.  Every
    [period] rounds the groups are rebuilt from scratch: the groups jointly
    simulate the rapid hypercube sampling primitive for their supernodes
    (each simulated round costing two network rounds), then every group
    scatters its members to the supernodes it sampled.  An adversary whose
    topology view is at least [period] rounds old therefore never knows the
    current composition of any group (Theorem 6).

    Simulation fidelity: we keep one canonical supernode state per group
    (the paper reconciles replicas via the lowest-id rule, so all correct
    replicas agree) and advance it exactly when the group has an available
    node — non-blocked in the previous and current round — as Lemma 14
    requires.  If any group ever lacks an available node, the window is
    marked failed and the old assignment is kept: the real protocol would
    have lost that supernode's state. *)

type t

type round_report = {
  round : int;
  blocked_count : int;
  connected : bool;
      (** the subgraph induced by non-blocked nodes is connected (checked on
          the occupied-supernode quotient, which is equivalent here) *)
  reachable_fraction : float;
      (** fraction of occupied supernodes reachable from the first occupied
          one; 1.0 iff [connected] (and vacuously when everyone is blocked) *)
  min_group_available : int;
      (** min over groups of members available this round *)
  starved_groups : int;
      (** groups with no available member this round (> 0 dooms the window) *)
}

type window_report = {
  window : int;
  reconfigured : bool;  (** the fresh assignment was computed and applied *)
  failed_rounds : int;  (** rounds in the window with a starved group *)
  disconnected_rounds : int;
  sampling_underflows : int;
      (** total recovery events of the window's sampling: pool underflows
          plus direct-draw fallbacks (the historical combined count) *)
  sampling_fallbacks : int;
      (** of those, draws served by a direct uniform fallback because a
          sample pool ran dry (0 in a correctly provisioned run) *)
  sampling_retries : int;
      (** sampling re-attempts under the retry policy (Canonical backend;
          0 without a policy) *)
  sampling_escalations : int;
      (** sampling retries that raised the provisioning constant *)
  c_multiplier : float;
      (** sticky provisioning multiplier that was in effect for this
          window's sampling (1.0 until an escalation fires) *)
  min_group_size : int;  (** of the new assignment (Lemma 16) *)
  max_group_size : int;
}

type backend =
  | Canonical
      (** one canonical supernode state per group, advanced while the
          availability criterion holds (the default; see DESIGN.md) *)
  | Message_level
      (** the groups run the sampling primitive through {!Group_sim}: every
          proposal broadcast, state hand-off and inter-group message is a
          real {!Simnet.Engine} message subject to the same per-round
          blocked sets as the availability bookkeeping — the unabridged
          Section 5 execution *)

val create :
  ?c:float ->
  ?backend:backend ->
  ?trace:Simnet.Trace.t ->
  ?faults:Simnet.Faults.plan ->
  ?retry:Retry.policy ->
  rng:Prng.Stream.t ->
  n:int ->
  unit ->
  t
(** [c] (default 1.0) is the constant fixing the supernode count
    N = 2^d <= n / (c log2 n); expected group size is then >= c log2 n.
    Nodes are initially assigned to groups independently and uniformly.
    [backend] (default [Canonical]) selects how the group simulation of the
    sampling primitive is executed.  [trace] (default {!Simnet.Trace.null})
    records one ["dos/window"] [Span] per completed window and, with the
    [Message_level] backend, the group simulation's round events and phase
    spans.

    [faults] is applied in full through {!Simnet.Runtime}.  With the
    [Canonical] backend, drop/duplicate/delay rates fire on the per-node
    scatter legs of every reorganization (a lost leg leaves the node in
    its old group) and crashed nodes count as blocked until they recover;
    reorder (vacuous on single-message legs) is rejected with
    [Invalid_argument].  With the [Message_level] backend the plan is
    handed unchanged to the group simulation's engine, so proposal
    broadcasts and inter-group bundles are subject to drops, delays,
    duplicates and crashes on top of the blocked sets.  [retry] (default {!Retry.fixed}) arms the recovery ladder: the
    sampling primitive retries with escalated provisioning (Canonical
    backend), supernode states fall back to direct uniform draws instead of
    underflowing (Message_level backend), and any window that still needed
    underflow recovery stickily raises the provisioning multiplier for all
    subsequent windows (capped by the policy's [c_cap]). *)

val n : t -> int
val supernode_count : t -> int
val dimension : t -> int
val period : t -> int
(** Rounds per reconfiguration window: 4 ceil(log2 d) network rounds for
    the simulated sampling plus 4 for the reorganization phase. *)

val group_of : t -> int array
(** Copy of the current node -> supernode assignment (this is exactly the
    topological information a t-late adversary observes, with delay). *)

val epoch : t -> int
(** Moves whenever a window boundary replaces the assignment, so rounds of
    one epoch have equal {!group_of}. *)

val group_members : t -> int -> int array

val run_round : t -> blocked:bool array -> round_report
(** Advance one network round under the given blocked set (size n).  The
    availability rule uses the previous round's blocked set as well, per
    the model.  When the round completes a window, the pending
    reconfiguration is applied (or abandoned if the window failed). *)

val last_window : t -> window_report option
(** Report of the most recently completed window. *)

val windows_completed : t -> int

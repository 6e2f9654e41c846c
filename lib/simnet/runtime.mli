(** Driver-level simulation runtime: rounds, epochs, fault legs and trace
    emission for the protocol drivers.

    {!Engine} runs protocols *inside* the synchronous network (the group
    simulation) and applies the {!Faults} plan per inbox message.  The
    protocol drivers above it — churn/DoS/churn+DoS networks,
    reconfiguration's reply-retry path, Chord, and the workload driver —
    model whole request/reply {e legs} instead, and apply the same plan
    through this module.  In both, {!Faults} decides each fault, charges it
    and traces it; the engine and this runtime only apply the outcome.

    A {!t} owns, for one driver run:
    - round and epoch progression ({!advance}, {!run_epoch});
    - the installed fault plan and its crash schedule ({!tick},
      {!crashed}), size-independently keyed so the network may grow past
      the install-time [n] ({!resize});
    - fault legs ({!leg}, {!link_drop}) and their losses ({!losses});
    - health/invariant re-validation ({!health}, {!validate_cycles});
    - typed trace emission ({!span}, {!note}, {!adversary},
      {!emit_round}) so drivers never touch {!Trace} constructors.

    Determinism contract: with the same plan and seed, a runtime consumes
    the fault stream exactly as the seed drivers did on their supported
    paths (one Bernoulli per leg for drop-only plans), so fault-free and
    drop-only same-seed runs are byte-identical to pre-runtime traces. *)

type t

val create :
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  ?supports:Faults.feature list ->
  ?who:string ->
  n:int ->
  unit ->
  t
(** Build a runtime for a network of [n] nodes.  [supports] (default: all
    features) declares which plan features the calling driver can honor;
    a plan using an unsupported feature raises [Invalid_argument] naming
    [who] and the offending field, so users are never silently served a
    partial plan.  A plan with no {!Faults.features} is not installed and
    costs one [option] check per call.  Raises [Invalid_argument] if
    [n <= 0]. *)

val trace : t -> Trace.t
val traced : t -> bool

val plan : t -> Faults.plan option
(** The installed plan, if any ([None] for inert plans). *)

val faulty : t -> bool

val round : t -> int

val epoch : t -> int
(** Number of completed {!run_epoch} calls. *)

val advance : t -> rounds:int -> unit
(** Account [rounds] communication rounds (raises [Invalid_argument] on a
    negative count). *)

val resize : t -> n:int -> unit
(** The network grew or shrank to [n] nodes.  Fault streams are
    size-independently keyed ({!Faults.resize}), so this never re-seeds
    or re-draws anything: joins past the install-time [n] are simply
    never crash victims. *)

val tick : t -> unit
(** Apply the crash/recover transitions scheduled up to the current
    round ({!Faults.tick}).  Call once per round (or once per epoch for
    epoch-granular drivers). *)

val crashed : t -> int -> bool
(** Whether the node is currently crashed (always [false] for nodes
    beyond the install-time range and without a plan). *)

type losses = Faults.losses = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_lost : int;
}

val losses : t -> losses
(** Running totals of the losses charged by {!leg} rolls. *)

val leg : t -> ?src:int -> ?dst:int -> unit -> bool
(** Roll the fault plan for one communication leg (a request or a reply
    travelling one way); returns whether it arrives.  A crashed endpoint
    loses the leg before any stream draw; otherwise {!Faults.roll} decides.
    A delayed leg misses its attempt's round and is lost to the attempt; a
    duplicated leg still arrives (the extra copy is benign at leg
    granularity).  Inbox reordering cannot fire on a single-leg inbox and
    consumes no randomness, exactly as in the engine.  Without a plan:
    [true], no draws.  For drop-only plans this consumes exactly one
    Bernoulli draw per leg — the same consumption as the seed drivers. *)

val link_drop : t -> (unit -> bool) option
(** [Some f] when the plan has per-message link faults (drop, delay or
    duplicate), where [f () = not (leg t ())]; [None] otherwise.  Shaped
    for {!Core.Reconfig}'s [?drop] reply-loss hook. *)

type health = { reachable : int; reachable_fraction : float; connected : bool }

val health : t -> n:int -> neighbors:(int -> int array) -> health
(** BFS reachability from node 0 over [neighbors] ({!Invariants.reachable}). *)

val validate_cycles :
  t -> m:int -> int array array -> (unit, Invariants.violation) result
(** Re-validate reconfigured cycles ({!Invariants.check_cycles}),
    emitting the violation's typed trace event on failure. *)

val request :
  t ->
  op:string ->
  round:int ->
  client:int ->
  latency:int ->
  hops:int ->
  status:string ->
  unit
(** Emit one typed per-request outcome event ({!Trace.Request}).  [round]
    is the round the request left the system — usually the current round,
    but explicit because drains may complete requests at the horizon. *)

val span : t -> name:string -> rounds:int -> (string * Trace.value) list -> unit
val note : t -> name:string -> (string * Trace.value) list -> unit
val adversary : t -> kind:string -> (string * Trace.value) list -> unit

val emit_round :
  t ->
  msgs:int ->
  bits:int ->
  max_node_bits:int ->
  max_node_msgs:int ->
  blocked:int ->
  unit
(** Emit the [Round] event for the current round (call before
    {!advance}). *)

type 'a epoch_report = {
  result : 'a;
  index : int;  (** 0-based epoch index *)
  rounds : int;  (** communication rounds the epoch accounted *)
  epoch_losses : losses;  (** losses charged during this epoch *)
}

val run_epoch : t -> (t -> 'a * int) -> 'a epoch_report
(** Run one epoch: the driver callback performs its work against the
    runtime and returns [(result, rounds)]; [run_epoch] snapshots
    {!losses} around it, advances the round counter by [rounds], and
    increments the epoch counter. *)

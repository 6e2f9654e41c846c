(** Deterministic fault injection: the one fault model of the simulator.

    A {!plan} describes *ordinary* infrastructure faults — per-message drop,
    duplication, bounded delay, inbox reordering, and node-level
    crash-stop / crash-recover schedules — none of which the paper's model
    covers (its only failure modes are the omniscient churner and the t-late
    DoS blocker).  An installed plan ({!t}) decides every fault, charges it
    to {!losses} and emits its typed {!Trace.Fault} event.  Its two callers
    only apply the outcome: {!Engine} to one message at its delivery
    boundary, after the Section 1.1 blocking rule, and {!Runtime} to one
    request/reply leg of a driver.  Both roll in one order — a crashed
    endpoint loses the message, then drop → delay → duplicate (see
    [docs/fault_model.md]).

    All randomness is drawn from a dedicated {!Prng.Stream} keyed by
    [plan.seed], never from a node's or an adversary's stream, so a fault
    plan perturbs *which* messages survive but not the protocol's own coin
    flips: two runs with the same seed and the same plan produce
    byte-identical traces, and installing a zero-rate plan leaves every
    metric identical to a run without faults. *)

type plan = {
  drop : float;  (** per-message Bernoulli loss probability *)
  duplicate : float;  (** per-message probability of one extra copy *)
  delay_p : float;  (** per-message probability of being held back *)
  delay_max : int;
      (** bound on the hold, in rounds: a delayed message is re-delivered
          after a uniform 1..[delay_max] rounds (0 disables delays) *)
  reorder : float;  (** per-inbox probability of a uniform shuffle *)
  crash : int;  (** number of distinct nodes to crash *)
  crash_round : int;
      (** the i-th crashed node (0-based) stops at round [crash_round + i] *)
  recover_after : int;
      (** rounds until a crashed node recovers; 0 = crash-stop forever *)
  seed : int64;  (** seed of the dedicated fault stream *)
}

type feature = [ `Drop | `Duplicate | `Delay | `Reorder | `Crash | `Recover ]
(** The independently supportable parts of a plan. *)

val features : plan -> feature list
(** The parts of the plan that can fire.  A plan with none, e.g.
    [make ()], is never installed: {!Engine} and {!Runtime} run
    fault-free under it, at the cost of one [option] check per message. *)

val make :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_p:float ->
  ?delay_max:int ->
  ?reorder:float ->
  ?crash:int ->
  ?crash_round:int ->
  ?recover_after:int ->
  ?seed:int64 ->
  unit ->
  plan
(** All rates default to 0 / off; [delay_p] defaults to 0.05 when
    [delay_max > 0] is given without an explicit probability;
    [crash_round] defaults to 1; [seed] to a fixed constant.  Raises
    [Invalid_argument] on probabilities outside [0, 1] or negative
    counts. *)

val parse_spec : string -> (plan, string) result
(** Parse a CLI spec like ["drop=0.05,dup=0.01,delay=2,crash=3"].
    Keys: [drop], [dup], [delayp], [delay] (= [delay_max]), [reorder],
    [crash], [crashround], [recover], [seed].  Unknown keys and malformed
    values yield [Error]. *)

val to_spec : plan -> string
(** Render a plan back into {!parse_spec} syntax (only non-default
    fields). *)

type t
(** An installed plan: the plan, its dedicated random stream, the
    materialized crash schedule for a network of a given size, the loss
    counters and the trace its fault events go to. *)

val install : ?trace:Trace.t -> plan -> n:int -> t
(** Materialize the plan for [n] nodes: the crashed node set
    ([min plan.crash n] distinct nodes) is drawn from the fault stream
    here, so it is a pure function of [(plan, n)].  [trace] (default
    {!Trace.null}) receives one [Fault] event per applied fault and per
    crash/recover transition. *)

val plan : t -> plan

type losses = {
  dropped : int;  (** messages killed by a drop fault *)
  duplicated : int;  (** extra copies injected by a duplication fault *)
  delayed : int;
      (** messages held back by a delay fault: the engine delivers them
          late, a driver leg misses its attempt and is lost *)
  crash_lost : int;  (** messages lost to a crashed endpoint *)
}

val no_losses : losses

val losses : t -> losses
(** Running totals since {!install}. *)

val crashed : t -> int -> bool
(** Whether the node is currently crashed.  Size-independently keyed:
    indices outside the install-time range (nodes that joined after
    {!install}, or after the last {!resize}) are never crashed, so a
    growing network needs no re-install and the Bernoulli stream is
    never re-seeded. *)

val charge_crash : t -> int -> unit
(** Charge that many messages lost to a crashed endpoint to [crash_lost].
    No stream draw, no event. *)

val resize : t -> n:int -> unit
(** Widen the crash bookkeeping to [n] nodes (grow-only; shrinking is a
    no-op so that a node that crashed, left, and re-joined under the same
    index stays crashed until its scheduled recovery).  Consumes no
    randomness: the crash victim set stays the pure function of
    [(plan, install-time n)] it was drawn as.  Raises [Invalid_argument]
    if [n <= 0]. *)

val tick : t -> round:int -> unit
(** Apply the crash/recover transitions scheduled up to [round], oldest
    first, emitting one [crash] or [recover] event each.  Call once per
    round (or epoch) at the delivery boundary, with non-decreasing
    rounds. *)

type outcome =
  | Pass  (** deliver it *)
  | Drop  (** lost *)
  | Delay of int  (** held back that many rounds, in [1, delay_max] *)
  | Duplicate  (** deliver it and one extra copy *)

val roll : t -> round:int -> ?src:int -> ?dst:int -> unit -> outcome
(** Roll one message sent at [round] between live endpoints: drop, else
    delay, else duplicate, each at most one draw and none at rate 0.  A
    fired fault is charged to {!losses} and traced with the given
    endpoints (delays also with the round they end). *)

val reorder : t -> round:int -> dst:int -> int -> int array option
(** [reorder t ~round ~dst len] rolls one shuffle of [dst]'s inbox of
    [len] messages: [Some p] with [p] a uniform permutation of
    [0 .. len-1], traced, when it fires.  An inbox of fewer than two
    messages, or a plan without reorder, draws nothing and allocates
    nothing. *)

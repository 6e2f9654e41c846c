(** Deterministic fault injection for the simulation engine.

    A {!plan} describes *ordinary* infrastructure faults — per-message drop,
    duplication, bounded delay, inbox reordering, and node-level
    crash-stop / crash-recover schedules — none of which the paper's model
    covers (its only failure modes are the omniscient churner and the t-late
    DoS blocker).  The plan is installed on {!Engine.create} via its
    [?faults] parameter; faults then apply at the delivery boundary, *after*
    the Section 1.1 blocking rule, and are charged independently of it (a
    blocked message is never also rolled for faults; see
    [docs/fault_model.md] for the exact composition).

    All randomness is drawn from a dedicated {!Prng.Stream} keyed by
    [plan.seed], never from a node's or an adversary's stream, so a fault
    plan perturbs *which* messages survive but not the protocol's own coin
    flips: two runs with the same seed and the same plan produce
    byte-identical traces, and installing a zero-rate plan leaves every
    metric identical to a run without faults.  Each applied fault emits one
    typed {!Trace.Fault} event. *)

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

val is_none : plan -> bool
(** Whether the plan can never fire a fault, e.g. [make ()].  Engines
    reject such a plan at installation time ({!install} is never called
    on it), so a run under it costs one boolean check per delivery and
    nothing else. *)

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
(** An installed plan: the plan plus its dedicated random stream and the
    materialized crash schedule for a network of a given size. *)

val install : plan -> n:int -> t
(** Materialize the plan for [n] nodes: the crashed node set
    ([min plan.crash n] distinct nodes) is drawn from the fault stream
    here, so it is a pure function of [(plan, n)]. *)

val plan : t -> plan

val crashed : t -> int -> bool
(** Whether the node is currently crashed.  Size-independently keyed:
    indices outside the install-time range (nodes that joined after
    {!install}, or after the last {!resize}) are never crashed, so a
    growing network needs no re-install and the Bernoulli stream is
    never re-seeded. *)

val resize : t -> n:int -> unit
(** Widen the crash bookkeeping to [n] nodes (grow-only; shrinking is a
    no-op so that a node that crashed, left, and re-joined under the same
    index stays crashed until its scheduled recovery).  Consumes no
    randomness: the crash victim set stays the pure function of
    [(plan, install-time n)] it was drawn as.  Raises [Invalid_argument]
    if [n <= 0]. *)

val tick : t -> round:int -> (int * [ `Crash | `Recover ]) list
(** Apply the crash/recover transitions scheduled at [round] (call once
    per round, at the delivery boundary, with non-decreasing rounds) and
    return them, oldest first. *)

val roll_drop : t -> bool
val roll_duplicate : t -> bool

val roll_delay : t -> int
(** [0] = deliver now; otherwise the number of rounds to hold the
    message, in [1, delay_max]. *)

val roll_reorder : t -> 'a array -> bool
(** Maybe shuffle the inbox in place; returns whether it did. *)

(** Retry/escalation policies for the self-healing protocol drivers.

    A policy bounds how many times a driver may re-attempt a failed
    sub-protocol and how aggressively it escalates the provisioning
    constant [c] between attempts: attempt [k] (1-based) runs with
    [min c_cap (c * factor^k)].  The zero-retry {!fixed} policy reproduces
    the paper's fault-free drivers exactly — one attempt, typed failure on
    loss — so every retry knob defaults to off. *)

type policy = {
  max_retries : int;  (** re-attempts allowed beyond the first try *)
  factor : float;  (** multiplicative [c] escalation per attempt, >= 1 *)
  c_cap : float;  (** upper bound on the escalated [c] *)
}

val fixed : policy
(** No retries: [max_retries = 0].  The default everywhere. *)

val make : ?max_retries:int -> ?factor:float -> ?c_cap:float -> unit -> policy
(** Defaults: [max_retries = 3], [factor = 1.5], [c_cap = 8.0], a
    forgiving policy for fault experiments.  Raises [Invalid_argument] on
    a negative retry count, [factor < 1] or a non-positive [c_cap]. *)

val enabled : policy -> bool
(** [max_retries > 0]. *)

val escalate : policy -> c:float -> attempt:int -> float
(** The provisioning constant for re-attempt [attempt] (1-based) of a run
    that started at [c]: [min c_cap (c * factor^attempt)], never below
    [c]. *)

val sampling_with_retry :
  retry:policy ->
  c:float ->
  trace:Simnet.Trace.t ->
  attempt_fn:(c:float -> Sampling_result.t) ->
  Sampling_result.t
(** Driver loop shared by the rapid samplers: run [attempt_fn] with an
    escalating [c] until it reports zero underflows or the retry budget is
    spent; fills the result's [retries]/[escalations] fields and emits one
    ["sampling/retry"] trace note per re-attempt. *)

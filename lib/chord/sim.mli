(** Standalone Chord simulation: ring + maintenance + probe lookups under
    churn, crash plans, per-edge faults and the stale-view adversary.
    Backs [overlay_sim chord] and the [run=chord] sweep runner; the
    DHT-workload integration lives in {!Workload.Driver} instead.

    Each round: the adversary observes (t-late), churn epochs redraw the
    membership (returning nodes re-join through a live introducer),
    crash/recover transitions apply, the blocked set is assembled, one
    staggered maintenance slice runs ({!Net.tick}), and [lookups] probe
    lookups with zipf-ranked keys are issued from random available entry
    nodes, each accepted only by a true replica holder ({!Ring.holds}).
    Lookup latency is [1 + hops + timeouts] rounds. *)

type config = {
  n : int;
  rounds : int;
  m : int;  (** id bits; [-1] = the {!Ring.create} default *)
  fingers : int;  (** finger-table length; [-1] = [m] *)
  succs : int;  (** successor-list length; [-1] = the {!Ring.create} default *)
  period : int;  (** maintenance period; [-1] = 8 *)
  keys : int;
  lookups : int;  (** probe lookups per round *)
  zipf : float;  (** key-popularity exponent; [<= 0] = uniform *)
  strategy : Adversary.strategy;
  frac : float;
  lateness : int;  (** adversary lateness; [-1] = the maintenance period *)
  staleness : Simnet.Snapshots.staleness option;
  churn : (float * int) option;  (** fraction down, epoch length *)
  faults : Simnet.Faults.plan option;
  retries : int;  (** maintenance contact retry budget *)
}

val config :
  ?rounds:int ->
  ?m:int ->
  ?fingers:int ->
  ?succs:int ->
  ?period:int ->
  ?keys:int ->
  ?lookups:int ->
  ?zipf:float ->
  ?strategy:Adversary.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?churn:float * int ->
  ?faults:Simnet.Faults.plan ->
  ?retries:int ->
  n:int ->
  unit ->
  config
(** Defaults: 64 rounds, 256 keys, 8 lookups/round, zipf 1.1, no attack,
    frac 0.1, derived ring parameters.  Raises [Invalid_argument] on
    non-positive counts or churn outside [0, 1). *)

type report = {
  config : config;
  m : int;  (** resolved ring parameters *)
  fingers : int;
  succs : int;
  period : int;
  issued : int;
  ok : int;
  lookup_timeouts : int;  (** failed contact attempts across all lookups *)
  max_hops : int;
  hist : Stats.Log_histogram.t;  (** latency of served lookups *)
  lookup_msgs : int;
  maint : Net.stats;
  total_bits : int;
  succ_ok : float;  (** final {!Ring.succ_ok_fraction} *)
  connected : bool;  (** final {!Ring.ring_connected} *)
  members : int;  (** final live membership *)
}

val goodput : report -> float
val percentile : report -> float -> int

val run :
  ?trace:Simnet.Trace.t -> ?domains:int -> seed:int64 -> config -> report
(** Deterministic in [seed] (fixed stream split order, same discipline as
    the workload driver): same seed, same config — byte-identical trace.
    [domains] bounds the runtime's worker domains and never affects the
    result. *)

val summary_lines : report -> string list
(** The [overlay_sim chord] table (also the cram golden). *)

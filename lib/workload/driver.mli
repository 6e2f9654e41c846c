(** The request plane: one round loop ({!serve}) that runs a request
    source ({!source}) against any overlay backend ({!Backend_intf.S})
    under the full hostile environment: reconfiguration (or a static
    baseline), a t-late blocking adversary ({!Attack}), coarse churn, and
    ordinary faults ({!Simnet.Faults}).  The {!Spec} client workload
    ({!run}) and the social application ({!Social}) are its sources.

    Time is rounds.  Each round the loop (1) lets the backend reconfigure
    (the robust reshuffle when the period elapsed), (2) lets the adversary
    observe, (3) redraws the churned-out server set at epoch boundaries,
    (4) applies scheduled crash/recover transitions, (5) builds the
    blocked set (churn, crashes, the adversary's budget), (6) runs one
    maintenance slice, (7) admits the source's arrivals, (8) gives every
    pending request one service attempt, and (9) emits the [Round] event.

    An attempt rolls a request leg and a reply leg through the fault
    runtime, picks a random available entry server, and executes the
    request there; each DHT operation costs [1 + hops + waits] service
    rounds (a publish is three chained operations: counter read, payload
    write, counter write, and is idempotent under retry because the
    counter is written last).  A failed attempt retries next round until
    its class's retry budget is spent (["failed"]) or the next attempt
    would start past [arrival + timeout] (["timeout"]).  Latency of a
    served request is (attempt round - arrival) + service rounds; it
    misses the SLO when it exceeds its class's.  Served latencies feed
    one {!Stats.Log_histogram} per class, merged into the overall
    histogram with {!Stats.Log_histogram.merge}.

    Determinism: every random decision draws from a stream that is a pure
    function of [(seed, purpose)] — per-client request streams
    ({!Gen.client_stream}), a service stream for entry picks, dedicated
    churn/attack/topology streams, and the fault plan's own stream — so
    same-seed runs are byte-identical.  Sources generate
    arrivals round by round, so request-plane state is O(clients + in
    flight), independent of the run length. *)

type mode = Backend_intf.mode = Reconfig | Static

type churn = { frac : float; epoch : int }
(** Every [epoch] rounds, a fresh uniformly random [frac * n] servers are
    down for the whole epoch (coarse churn at the request-plane
    granularity). *)

type chord_params = Backend_intf.chord_knobs = {
  fingers : int option;
  succs : int option;
  period : int option;
}
(** Chord ring knobs; [None] takes the backend default
    ({!Chord.Ring.create}'s [succs], fingers = [m], maintenance period =
    the config [period]), resolved in one place — the Chord backend's
    [create]. *)

type backend = Robust | Chord of chord_params
(** Which overlay serves the requests.  [Robust] is the paper's
    reconfigurable supernode DHT.  [Chord of _] binds the same request
    plane (admissions, retries, latency accounting) onto iterative Chord
    lookups: [mode = Reconfig] runs one staggered {!Chord.Net.tick}
    maintenance slice per round, [mode = Static] disables maintenance
    (the ablation), [attack = Group_kill] becomes the stale-view
    successor-list attack ({!Chord.Adversary.Succ_kill}), and a request
    succeeds when its lookup is accepted by a true replica holder
    ({!Chord.Ring.holds}).  Messages are charged per contact leg, so
    iterative lookups pay request + reply where the robust path pays one
    message per hop. *)

type config = {
  spec : Spec.t;
  k : int;  (** cube arity of the underlying DHT *)
  mode : mode;
  period : int;  (** reshuffle every [period] rounds (ignored by [Static]) *)
  backend : backend;
  attack : Attack.strategy;
  frac : float;  (** adversary budget as a fraction of [n] *)
  lateness : int;  (** adversary observation delay, in rounds *)
  staleness : Simnet.Snapshots.staleness option;
      (** per-round drawn observation delay, replacing [lateness] *)
  churn : churn option;
  faults : Simnet.Faults.plan option;
      (** applied in full through {!Simnet.Runtime}: drop/duplicate/delay
          are rolled once per request leg and once per reply leg, and
          crashed servers count as blocked until they recover.  Reorder
          (vacuous on single-message legs) raises [Invalid_argument]. *)
  retries : int;  (** re-attempts allowed beyond the first *)
}

val config :
  ?k:int ->
  ?mode:mode ->
  ?period:int ->
  ?backend:backend ->
  ?attack:Attack.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?churn:churn ->
  ?faults:Simnet.Faults.plan ->
  ?retries:int ->
  ?domains:int ->
  Spec.t ->
  config
(** Defaults: [k = 4], the [Robust] backend, [Reconfig] every
    [period = 8] rounds, [No_attack] with [frac = 0.1] and
    [lateness = period], no churn, no faults, no retries.  Raises
    [Invalid_argument] on a non-positive period or arity, negative
    retries or lateness, a churn fraction outside [0, 1) / non-positive
    epoch, or a chord knob that is neither positive nor [-1].  [domains]
    is ignored (a run is sequential); it stays only because
    [perfbench/harness.ml] passes it, until ROADMAP item A's benchmark
    change drops it. *)

type class_report = {
  cls : string;  (** ["read"], ["write"], ["publish"] or ["all"] *)
  issued : int;
  ok : int;
  slo_miss : int;  (** served, but later than [spec.slo] *)
  timed_out : int;
  failed : int;  (** retry budget exhausted *)
  max_hops : int;  (** worst routing hops over served attempts *)
  hist : Stats.Log_histogram.t;  (** served latencies, in rounds *)
}

val goodput : class_report -> float
(** [ok / issued] (1.0 when nothing was issued). *)

val percentile : class_report -> float -> int
(** Latency percentile over served requests; 0 when nothing was served. *)

type report = {
  config : config;
  n : int;
  classes : class_report list;  (** read, write, publish — in that order *)
  total : class_report;
      (** aggregate; its histogram is the {!Stats.Log_histogram.merge} of
          the class histograms *)
  hop_msgs : int;
      (** total request-plane messages ([Robust]: 1 + hops per DHT
          operation; [Chord]: contact legs across all lookups) *)
  max_group_load : int;
      (** busiest supernode's messages within a single round — the
          congestion quantity of Theorem 8 (0 on the Chord backend,
          which has no supernodes) *)
  total_bits : int;
      (** total message bits: request-plane traffic plus, on the Chord
          backend, maintenance traffic (successor-list sized) *)
}

type attempt =
  | Served of { service : int; hops : int }
      (** [service]: rounds the attempt took, [base_ops + hops + waits]
          summed over its DHT operations *)
  | Attempt_failed of { hops : int }

type server = {
  get : entry:int -> int -> Backend_intf.op_result;
  put : entry:int -> int -> string -> Backend_intf.op_result;
  publish : entry:int -> topic:int -> string -> Backend_intf.op_result;
  last_seq : entry:int -> topic:int -> Backend_intf.op_result;
}
(** The run's backend instance, as the operations an attempt may chain. *)

type 'r source = {
  name : string;  (** run-header note name, e.g. ["workload/run"] *)
  fields : (string * Simnet.Trace.value) list;
      (** header fields, spliced between the backend's fields and the
          loop's own [mode] / [attack] *)
  classes : string array;
      (** class names, in report order; the [op] of [Request] events *)
  class_of : 'r -> int;  (** index into [classes] *)
  arrival : 'r -> int;  (** round the request entered the system *)
  client : 'r -> int;
  slo : int array;  (** per class: latency SLO in rounds *)
  timeout : int array;
      (** per class: a failed attempt is abandoned when the next one
          would start past [arrival + timeout] *)
  retries : int array;  (** per class: re-attempts beyond the first *)
  admit : round:int -> ('r -> unit) -> unit;
      (** hand this round's arrivals to the issue callback, in order;
          called once per round, rounds in order *)
  release : 'r -> at:int -> unit;
      (** the request completed or was abandoned; [at] is the round its
          client is free again (the closed loop's think time counts from
          there) *)
  exec : server -> entry:int -> 'r -> attempt;
      (** one attempt on an available entry server; runs only after both
          fault legs were delivered *)
  on_churn : Simnet.Runtime.t -> round:int -> epoch:int -> down:int -> unit;
      (** after each churn redraw ([epoch] = [round / churn.epoch]), for
          the source's own trace note *)
  health : string option;
      (** note name for the backend's {!Backend_intf.S.health} probe,
          emitted at every reconfiguration period ([None] = never) *)
}
(** A request source: a workload, seen by the round loop. *)

val serve :
  (module Backend_intf.S) ->
  ?trace:Simnet.Trace.t ->
  ?hot_keys:(int * float) array ->
  who:string ->
  seed:int64 ->
  n:int ->
  config ->
  'r source ->
  report
(** [serve (module B) ~who ~seed ~n cfg source] runs [cfg.spec.rounds]
    rounds of [source] on a fresh [n]-server [B].  Set-up ([B.create]
    above all) ends at the run-header note, the run's first trace event.
    [hot_keys] overrides the adversary's key ranking
    ({!Backend_intf.ctx}); [who] prefixes fault-plan errors.  Requests
    still pending at the end are abandoned as timeouts at round
    [cfg.spec.rounds]. *)

val spec_source : seed:int64 -> config -> Gen.request source
(** The {!Spec} client workload as a source: three classes sharing
    [spec.slo], [spec.timeout] and [cfg.retries].  Each round its [admit]
    walks clients 0 .. [clients - 1] and advances each client's keyed
    stream ({!Gen.client_stream}) by one round: a Poisson burst of
    requests (open loop) or one request when the client is free (closed
    loop).  It owns that per-client state, so build one per run. *)

val run : ?trace:Simnet.Trace.t -> seed:int64 -> n:int -> config -> report
(** Execute the {!Spec} workload on a fresh [n]-server DHT.  Emits, when
    [trace] is given: one [workload/run] header note, one [Round] per
    round (messages, bits, busiest-node load, blocked-set size), one
    [Request] per request at completion or abandonment,
    [Adversary]/[Fault] events for churn draws and crash transitions. *)

val run_backend :
  (module Backend_intf.S) ->
  ?trace:Simnet.Trace.t ->
  seed:int64 ->
  n:int ->
  config ->
  report
(** [run] over any overlay: {!serve} with {!spec_source}.
    [cfg.backend] is only consulted for the Chord knobs ([ctx.chord]);
    the module argument decides the overlay.  [run] is
    [run_backend (module Backends.Robust)] / [(module Backends.Chord_ring)]. *)

val table_lines : report -> string list
(** The default per-class result table (fixed-width, one string per line,
    no trailing newline) printed by [overlay_sim workload] and pinned by the
    cram test. *)

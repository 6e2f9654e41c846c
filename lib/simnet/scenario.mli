(** One value describing a simulation run.

    A {!t} is the single spec every entry point builds runs from:
    construct one with {!of_args} (key/value pairs, e.g. from
    command-line flags) or {!parse} (a [;]-separated spec string), then
    hand its fields to the driver and its {!trace_sink} to the tracer.

    The spec is deliberately driver-agnostic: [retry] is a plain budget
    (drivers map it to their own policy type), [adversary] and [backend]
    are uninterpreted strings validated by the consumer, and unknown keys
    are rejected rather than ignored so a typo never silently drops a
    knob. *)

type t = {
  n : int;  (** number of nodes (default 1024) *)
  d : int;  (** H-graph degree (default 8) *)
  seed : int;  (** PRNG seed (default 42) *)
  adversary : string option;  (** e.g. ["random"], ["group-kill"] *)
  frac : float;  (** adversary blocking/churn fraction (default 0) *)
  lateness : int;  (** adversary lateness in rounds; -1 = driver default *)
  staleness : Snapshots.staleness option;
      (** per-round drawn adversary lateness; overrides [lateness] in
          drivers that support it ([None] = fixed [lateness]) *)
  corruption : Corruption.spec option;
      (** corrupted initial topology for {!Core.Stabilize} runs *)
  faults : Faults.plan option;  (** installed fault plan, if any *)
  retry : int;  (** recovery budget; 0 reproduces the fault-free drivers *)
  backend : string option;
      (** overlay backend, e.g. ["reconfig"] or ["chord"]; uninterpreted
          here — the workload driver and sweep runners validate it *)
  chord_fingers : int option;
      (** Chord finger-table length; [None] = backend default (the spec
          value [-1] parses to [None]) *)
  chord_succs : int option;
      (** Chord successor-list length; [None] = backend default *)
  chord_period : int option;
      (** Chord maintenance period; [None] = backend default *)
  topics : int option;  (** app topic count ([None] = app default) *)
  fanout : int option;
      (** app repost fan-out: follower-topic publishes triggered per post
          ([None] = app default) *)
  session : (float * int) option;
      (** user session cycle [ONLINE:EPOCH]: every [epoch] rounds a fresh
          [1 - online] fraction of users goes offline ([None] = always
          online) *)
  rounds : int;
      (** rounds/epochs/windows to run; -1 = driver default (0 is
          rejected) *)
  trace : string option;
      (** trace sink path ([None] = no tracing); a [.bin] suffix selects
          the binary format, anything else JSONL *)
}

val default : t
(** [n = 1024; d = 8; seed = 42], everything else off. *)

val of_args : ?base:t -> (string * string) list -> (t, string) result
(** Fold key/value pairs over [base] (default {!default}).  Keys: [n],
    [d], [seed], [adversary], [frac], [lateness], [staleness]
    (a {!Snapshots.staleness_of_string} value), [corruption] (a
    {!Corruption.parse_spec} sub-spec), [faults]
    (a {!Faults.parse_spec} sub-spec), [retry], [backend],
    [chord-fingers], [chord-succs], [chord-period] ([-1] = default, i.e.
    [None]), [topics], [fanout], [session] ([ONLINE:EPOCH]), [rounds]
    and [trace].  Later pairs override earlier ones.  Returns [Error] on an
    unknown key (suggesting the nearest valid key when the typo is
    close), an unparsable value, or a violated bound ([n <= 0],
    [retry < 0], ...) — with a message naming the key. *)

val parse : ?base:t -> string -> (t, string) result
(** Parse a [;]-separated spec string, e.g.
    ["n=4096;seed=7;faults=drop=0.05,crash=2;retry=3"].  The [faults]
    value is everything after its [=] up to the next [;], so the
    comma-separated fault sub-spec nests without quoting.  Empty
    segments are ignored. *)

val to_spec : t -> string
(** Inverse of {!parse}: the [;]-joined [KEY=VALUE] segments (in a fixed
    key order) that rebuild [t] from {!default}.  Only fields differing
    from {!default} are emitted; floats use the shortest decimal form
    that parses back to the same value, so [parse (to_spec t)] returns
    exactly [t].  Sweep checkpoint records embed this as the cell's
    copy-pasteable reproduction command line. *)

val trace_sink : t -> Trace.t
(** {!Trace.open_file} on the [trace] path ([Trace.null] when unset),
    its format picked by the path's suffix.  The caller owns the sink and
    must {!Trace.close} it. *)

val fault_model_active : t -> bool
(** Whether the run leaves the paper's fault-free model: a plan is
    installed or a retry budget armed. *)

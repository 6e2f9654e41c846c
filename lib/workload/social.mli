(** The Reddit-style composite application ({!Apps.Social}) as a request
    source for {!Driver.serve}: the driver's round loop runs it against any
    overlay backend under the full hostile environment (reconfiguration
    or a static baseline, the t-late blocking adversary, session churn,
    ordinary faults), and this module says only what is particular to
    the application.

    - {b Classes and budgets.}  Five traffic classes, each with its own
      arrival mix share and its own SLO, timeout and retry budget
      ({!Apps.Social.budget}), reported per class with their own
      {!Stats.Log_histogram}s.
    - {b Op chains.}  A request is a chain of DHT operations (a post
      carries its repost fan-out); one attempt must serve the whole
      chain, and its service time is the sum of the chain's operation
      costs ([base_ops + hops + waits] each).
    - {b Sessions.}  With [session = (online, epoch)] the offline users
      stop issuing (enforced at schedule generation), and the same cycle
      is the driver's coarse churn: [{frac = 1 - online; epoch}], a fresh
      [1 - online] fraction of servers down for each epoch.
    - {b Trace.}  One span family, [social/*]: the [social/run] header
      note (the run's first event, emitted once the schedule is built), a
      [social/session] note after each churn draw, and a [social/health]
      note (the backend's {!Backend_intf.S.health} probe) per
      reconfiguration period.  Requests are ordinary typed [Request]
      events whose [op] field carries the class name.

    Determinism: every decision draws from a [(seed, purpose)]-keyed
    stream, so traces and reports are byte-identical for any [domains]. *)

type config = {
  app : Apps.Social.config;
  base : Driver.config;
      (** the request plane: the app's topics as [spec], its session as
          [churn], the most patient class's retries as [retries] (the
          Chord backend's lookup-retry budget) *)
}

val config :
  ?k:int ->
  ?mode:Driver.mode ->
  ?period:int ->
  ?backend:Driver.backend ->
  ?attack:Attack.strategy ->
  ?frac:float ->
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?faults:Simnet.Faults.plan ->
  ?domains:int ->
  Apps.Social.config ->
  config
(** Defaults and [Invalid_argument] bounds as {!Driver.config}, which
    builds [base]. *)

type report = Driver.report = {
  config : Driver.config;  (** the [base] config *)
  n : int;
  classes : Driver.class_report list;
      (** feed, post, comment, vote, dm — in that order *)
  total : Driver.class_report;
  hop_msgs : int;
  max_group_load : int;
  total_bits : int;
}

val run : ?trace:Simnet.Trace.t -> seed:int64 -> n:int -> config -> report
(** Execute the social workload on a fresh [n]-server overlay.  The
    backend's adversary ranks the application's real hot keys — the
    subreddit publication counters ({!Apps.Social.hot_keys}) — so a
    [Group_kill] lands on the servers the feed reads actually hit. *)

val table_lines : report -> string list
(** {!Driver.table_lines}: printed by [overlay_sim social] and pinned by
    the cram test. *)

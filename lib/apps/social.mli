(** A Reddit-style composite application modelled on the Section 7
    primitives: subreddit-like topics served by the pub-sub emulation
    ({!Pubsub}) over the robust DHT, plus plain DHT reads/writes for vote
    tallies.

    Five traffic classes, feed reads dominating writes (the social-media
    regime): {!Feed} probes a content topic's publication counter,
    {!Post} publishes to a content topic and reposts to [fanout] follower
    feed topics (one logical action, several chained DHT operations),
    {!Comment} publishes to the subreddit's comment topic, {!Vote} writes
    the subreddit's tally key, and {!Dm} publishes to the recipient's
    direct-message topic.  Topic popularity is Zipf — a few subreddits
    absorb most of the traffic — which is exactly the hot-spot profile a
    key-targeting adversary exploits ({!hot_keys}).

    Users cycle online/offline in sessions: every [epoch] rounds a fresh
    [1 - online] fraction of users goes offline for the whole epoch and
    issues nothing.  The same cycle is meant to be compiled onto the
    server-side coarse-churn plan by the runner ({!Workload.Social}), so
    client absence and server churn move together as they do when a
    participant's machine leaves the overlay.

    Everything here is request generation, one round at a time
    ({!arrivals}); [Workload.Social] turns it into a request source, and
    the request plane's round loop ([Workload.Driver.serve]) executes,
    accounts and traces it.  Determinism: each user's randomness is a
    pure function of [(seed, user)], and the offline sets of {!offline}
    are drawn from a dedicated session stream. *)

type cls = Feed | Post | Comment | Vote | Dm

val classes : cls list
(** All five, in reporting order: feed, post, comment, vote, dm. *)

val class_name : cls -> string
(** ["feed"], ["post"], ["comment"], ["vote"], ["dm"] — the [op] field of
    the emitted [Request] trace events. *)

type budget = {
  slo : int;  (** latency SLO in rounds *)
  timeout : int;  (** rounds after arrival before the request is abandoned *)
  retries : int;  (** re-attempts allowed beyond the first *)
}

val budget : cls -> budget
(** Per-class service budget.  Interactive feed reads get the tightest
    SLO and give up early; posts get the loosest SLO (their repost
    fan-out rides in one multi-publish chain); direct messages retry the
    hardest (they must not be lost). *)

type mix = {
  feed : float;
  post : float;
  comment : float;
  vote : float;
  dm : float;
}
(** Class arrival mix (fractions; normalized by {!config}). *)

val default_mix : mix
(** 0.60 / 0.15 / 0.12 / 0.10 / 0.03 — reads dominate writes. *)

type config = {
  users : int;
  topics : int;  (** subreddit count *)
  rounds : int;
  rate : float;  (** mean new requests per online user per round (Poisson) *)
  fanout : int;  (** follower-feed publishes triggered per post *)
  zipf : float;  (** topic popularity exponent (s > 0) *)
  mix : mix;
  session : (float * int) option;
      (** [(online, epoch)]: every [epoch] rounds a fresh [1 - online]
          fraction of users goes offline ([None] = always online) *)
}

val config :
  ?users:int ->
  ?topics:int ->
  ?rounds:int ->
  ?rate:float ->
  ?fanout:int ->
  ?zipf:float ->
  ?mix:mix ->
  ?session:float * int ->
  unit ->
  config
(** Defaults: 64 users, 16 topics, 64 rounds, rate 0.25, fanout 2,
    Zipf 1.1, {!default_mix}, no sessions.  Raises [Invalid_argument] on
    non-positive counts, [rate <= 0], [fanout < 0], [zipf <= 0], negative
    mix weights or a zero mix sum, [topics > Pubsub.max_seq] (vote tally
    keys live in the plain key space, which shares topic 0's composite
    range), or a session with [online] outside (0, 1] / [epoch <= 0]. *)

(** {2 Key spaces}

    All pub-sub topics are disjoint and start at 1 (topic 0's composite
    range doubles as the plain key space, where the vote tallies live). *)

val content_topic : config -> int -> int
(** Subreddit [t]'s post topic: [1 + t]. *)

val comment_topic : config -> int -> int
(** Subreddit [t]'s comment topic: [1 + topics + t]. *)

val feed_topic : config -> int -> int
(** User [u]'s follower-feed topic (repost target): [1 + 2*topics + u]. *)

val dm_topic : config -> int -> int
(** User [u]'s direct-message topic: [1 + 2*topics + users + u]. *)

val vote_key : config -> int -> int
(** Subreddit [t]'s vote tally: the plain DHT key [t]. *)

val hot_keys : config -> (int * float) array
(** The application's hottest DHT keys, hottest first, for the adversary's
    key-targeting ranking: subreddit content-topic publication counters
    ({!Pubsub.counter_key} of {!content_topic}), weighted by the Zipf
    popularity [1 / (t+1)^zipf]. *)

(** {2 Requests} *)

type op =
  | Probe of int  (** read a topic's publication counter *)
  | Publish of int  (** publish to a topic (3 chained DHT operations) *)
  | Store of int  (** write a plain DHT key *)

val base_ops : op -> int
(** DHT operations an [op] costs when served: 1 for {!Probe}/{!Store},
    3 for {!Publish} (counter read, payload write, counter write). *)

type request = {
  user : int;
  seq : int;  (** per-user issue number *)
  arrival : int;  (** round *)
  cls : cls;
  ops : op list;
      (** chained operations, all of which must succeed within one
          attempt ({!Post} carries [1 + fanout] publishes) *)
}

val offline : config -> seed:int64 -> bool array array
(** Epoch-indexed offline sets ([.(e).(u)] = user [u] is offline during
    epoch [e]); [[||]] when [session = None].  Drawn sequentially from a
    session stream keyed only by [seed], so the sets are independent of
    the users' request streams. *)

val arrivals :
  config ->
  seed:int64 ->
  offline:bool array array ->
  round:int ->
  (request -> unit) ->
  unit
(** [arrivals cfg ~seed ~offline] is the open-loop request generator: a
    closure owning one keyed stream per user, so build one per run.
    Calling it with [~round] for rounds 0, 1, ... in order hands that
    round's requests to the callback in (user, seq) order.  It walks users
    0 .. [users - 1], skips those [offline] in epoch [round / epoch], and
    draws each online user's Poisson burst and its requests from the
    user's stream, a pure function of [(seed, user)].  State is
    O([users]), whatever the run length. *)

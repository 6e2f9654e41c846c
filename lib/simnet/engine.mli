(** Synchronous message-passing engine (the model of Section 1.1).

    A round has three steps: every node (1) receives the messages sent to it
    in the previous round, (2) computes locally, (3) sends one message per
    destination it chooses.  The engine drives the mailbox plumbing; a
    protocol driver supplies the compute step and does its own
    communication-work accounting (the engine prices nothing).

    Blocking semantics under DoS-attacks (Section 1.1): a message sent from
    [v] to [w] in round [i] is received and processed by [w] iff [v] is
    non-blocked in round [i] and [w] is non-blocked in rounds [i] and
    [i + 1].  The engine enforces all three conditions; drivers only need to
    refrain from computing on behalf of currently blocked nodes (and
    [deliver_and_step] below does even that for you).

    On top of the blocking rule the engine can apply a deterministic
    {!Faults.plan}: per-message drop, duplication, bounded delay and inbox
    reordering, plus node-level crash-stop / crash-recover schedules.
    Faults fire at the delivery boundary, after the blocking rule, and draw
    from the plan's own random stream, so the protocol's coin flips are
    unperturbed and same-seed runs stay byte-identical.  Each applied fault
    emits a typed {!Trace.Fault} event; without a plan the overhead is one
    [option] check per round.

    {2 Sharded round core}

    Internally nodes are split into K destination shards of [2^shard_bits]
    nodes; sends stage into per-(sender-shard × dest-shard) lanes backed by
    contiguous grow-once planes (Bigarrays for the int columns), and
    delivery merges each dest shard's lanes with a counting sort — a linear
    sweep per shard instead of n random mailbox hops.  With [domains > 1]
    the merge runs one shard per worker domain.  With a fault plan, one
    sequential pass in global destination order then applies the crash and
    blocking losses and the fault rolls, writing the surviving messages into
    one reused plane.

    Inbox order contract: a destination receives its messages grouped by
    sender shard (ascending), in send order within each sender shard.
    Sends issued from the compute step with [~src:me] — every driver in
    this repository — arrive in exactly the historical global send order,
    so same-seed traces are byte-identical at any shard count and any
    domain count.  Only manual out-of-compute sends interleaving multiple
    sender shards can observe the shard grouping.

    Typical use:
    {[
      let eng = Engine.create ~n () in
      for _ = 1 to rounds do
        Engine.set_blocked eng (adversary ());
        Engine.deliver_and_step eng (fun ~round ~me ~inbox ->
            Engine.slice_iter (fun ~src msg -> ...) inbox;
            ... sends ...)
      done
    ]} *)

type 'msg t

type losses = {
  dropped : int;  (** messages killed by a drop fault *)
  duplicated : int;  (** duplicate copies injected by a duplication fault *)
  delayed : int;  (** messages held back by a delay fault (later delivered) *)
  crash_lost : int;  (** messages lost to a crashed endpoint *)
}

val create :
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  ?domains:int ->
  ?shard_bits:int ->
  n:int ->
  unit ->
  'msg t
(** [trace] (default {!Trace.null}) receives one [Fault] event per applied
    fault; the engine emits no other events.  [faults] installs a fault
    plan ({!Faults.install}); omitting it, or passing a plan for which
    {!Faults.is_none} holds, runs the fault-free engine.

    [domains] (default {!Parallel.default_domains}, so [OVERLAY_DOMAINS]
    applies) bounds the worker domains used for the per-shard merge;
    results are byte-identical for every value.  [shard_bits] (default
    14, clamped to [4, 20]; the [OVERLAY_SHARD_BITS] environment variable
    overrides the default) sets the destination-shard width — results are
    independent of it for compute-driven sends, so it is a tuning/testing
    knob, not a semantic one. *)

val round : _ t -> int
(** Index of the current round, starting at 0. *)

val shard_count : _ t -> int
(** Number of destination shards, [ceil (n / 2^shard_bits)].  A function
    of [n] and [shard_bits] only — never of [domains]. *)

val losses : _ t -> losses
(** Running totals of injected faults and crash losses since creation. *)

val fault_plan : _ t -> Faults.plan option
(** The installed plan, if any ([None] when fault-free). *)

val set_blocked : _ t -> (int -> bool) -> unit
(** Install the blocked-set for the current round.  Must be called before
    the round's delivery/compute.  The predicate applies to this round only:
    after the round completes it resets to "nobody blocked", so an adversary
    that attacks every round must call this every round.

    Raises [Invalid_argument] if any [send] already happened this round:
    queued messages were filtered against the old blocked-set, so swapping
    it mid-round would silently mis-apply the blocking rule. *)

val is_crashed : _ t -> int -> bool
(** Whether the node is currently crash-stopped by the fault plan (always
    [false] without one).  Crashed nodes neither send, receive, nor
    compute; unlike blocking, every message lost to a crash is counted in
    {!losses}. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue a message during the current round; it is delivered at the start
    of the next round, subject to the blocking rule.  A send is accepted
    iff neither endpoint is crashed ({!is_crashed}) nor blocked this round
    (the send-time half of the rule).  Sends touching a crashed endpoint
    are dropped and counted as [crash_lost]; sends touching a blocked one
    are dropped uncounted. *)

type 'msg slice
(** A borrowed view of one node's inbox: a window over the engine's
    reused merged planes, so a round allocates nothing per message.  Valid
    only for the duration of the compute callback it was passed to; do not
    store it. *)

val slice_iter : (src:int -> 'msg -> unit) -> 'msg slice -> unit

val deliver_and_step :
  'msg t ->
  (round:int -> me:int -> inbox:'msg slice -> unit) ->
  unit
(** Run one full round: deliver last round's messages, invoke the compute
    function for every non-blocked, non-crashed node (the slice lists
    [(sender, msg)] in arrival order per the inbox order contract above;
    messages released from a delay fault come first), then advance the
    round counter.  The compute function performs its sends via [send].
    Compute runs sequentially over ascending node ids, so the callback may
    freely share state. *)

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
    Faults fire at the delivery boundary, after the blocking rule; the
    installed {!Faults.t} rolls, charges and traces each one, and the
    engine applies the outcome (a delayed message is held and delivered
    late).  Without a plan the overhead is one [option] check per round.

    {2 Flat round core}

    Sends stage into one plane of (src, dst, msg) columns; delivery sorts
    the plane by destination with one counting sort over all n nodes into
    one merged plane with n + 1 offsets, so a node's inbox is one
    contiguous window.  The id columns are 32-bit Bigarrays outside the
    OCaml heap.  With a fault plan, one sequential pass in ascending
    destination order then applies the crash and blocking losses and the
    fault rolls, writing the surviving messages into a second reused
    plane.  The engine runs on the calling domain only.

    Inbox order contract: a destination receives its messages in global
    send order, whether they were sent from the compute step or outside
    it; a fault plan's delays and reorders then act on that order.

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

val create :
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  n:int ->
  unit ->
  'msg t
(** [trace] (default {!Trace.null}) receives one [Fault] event per applied
    fault; the engine emits no other events.  [faults] installs a fault
    plan ({!Faults.install}); omitting it, or passing a plan with no
    {!Faults.features}, runs the fault-free engine.  Raises
    [Invalid_argument] unless [0 < n < 2^31]. *)

val round : _ t -> int
(** Index of the current round, starting at 0. *)

val losses : _ t -> Faults.losses
(** Running totals of injected faults and crash losses since creation
    ({!Faults.no_losses} without a plan). *)

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

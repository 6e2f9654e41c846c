(** Robust publish-subscribe (Section 7.3), emulated on the DHT.

    Every subscriber group is identified by a key [k]; the DHT stores a
    publication counter m(k) under the group's meta key, and publication
    number i under the composite key (k, i).  Publishing reads m(k),
    stores the payload under (k, m(k)+1) and updates the counter; a batch of
    publications is aggregated per key first (the paper's Ranade-style
    aggregation), so the counter is read and written once per key no matter
    how many publications arrive.  A subscriber fetches everything since its
    last-seen sequence number by reading m(k) and the missing (k, i).

    Composite keys are packed as [key * 2^20 + seq]; topics are limited to
    2^20 - 1 publications each, and exceeding the limit raises the typed
    {!Topic_full} (a larger sequence number would carry into the topic bits
    and silently collide with the next topic's key space). *)

type t

exception Topic_full of { topic : int; seq : int }
(** Raised by every publish path (and {!composite}) when an operation would
    need a sequence number past [2^20 - 1]; always raised before any write
    for the offending topic happens. *)

val max_seq : int
(** Largest sequence number a topic can hold: [2^20 - 1]. *)

val composite : int -> int -> int
(** [composite topic seq] is the packed DHT key of publication [seq] of
    [topic].  Raises {!Topic_full} if [seq > max_seq], [Invalid_argument]
    on negative arguments. *)

val counter_key : int -> int
(** The DHT key holding a topic's publication counter m(k)
    ([composite topic 0]). *)

val next_slot : topic:int -> int -> (int * int) option
(** [next_slot ~topic m] is the publication after counter value [m]: its
    sequence number [m + 1] and {!composite} key, or [None] when the topic
    is full ([m >= max_seq]).  The request plane's publish chain checks
    through it and fails the attempt instead of raising {!Topic_full}. *)

val create : dht:Robust_dht.t -> t

val publish :
  t -> blocked:bool array -> topic:int -> payload:string -> int option
(** Returns the assigned sequence number (1-based), or [None] if the DHT
    could not serve the request. *)

val publish_batch :
  t -> blocked:bool array -> (int * string) list -> int * int
(** Aggregated bulk publish; returns (published, failed).  Aggregation here
    is logical (one counter read/write per topic); the counter owner still
    receives one routed message per topic. *)

val publish_batch_aggregated :
  t ->
  blocked:bool array ->
  (int * string) list ->
  (int * int) * Butterfly.stats
(** Network-level aggregation, the Section 7.3 construction: every
    publication enters at a random non-blocked server; the per-topic counts
    travel through the k-ary cube with Ranade-style combining
    ({!Butterfly.aggregate}), so each counter owner receives O(d) combined
    messages no matter how hot the topic; sequence ranges are assigned in
    bulk and the payloads stored under their (topic, seq) keys as usual.
    Returns (published, failed) plus the aggregation statistics. *)

val last_seq : t -> blocked:bool array -> topic:int -> int option
(** Current value of the publication counter m(k); [Some 0] for any topic
    that has never been published to; [None] if the counter could not be
    reached. *)

val fetch_since : t -> blocked:bool array -> topic:int -> since:int -> string list option
(** Publications with sequence numbers in (since, m(k)], oldest first;
    [None] if the counter or any publication could not be read. *)

val fetch_batch :
  t ->
  blocked:bool array ->
  (int * int) list ->
  string list option array * Staged_router.stats
(** [fetch_batch t ~blocked subscribers] serves many catch-up requests at
    once: entry [i] of the input is (topic, last seen sequence number) for
    subscriber [i], entry [i] of the output its backlog (as in
    {!fetch_since}).  All counter reads and publication reads travel
    through the combining butterfly ({!Staged_router}), so a thousand
    subscribers of one hot topic cost its owner O(k d) messages, not a
    thousand.  The returned stats cover the publication-read batch. *)

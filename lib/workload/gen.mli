(** Deterministic request generation.

    Every client owns a private {!Prng.Stream} derived purely from
    [(seed, client id)] — not by sequential splitting — so a client's
    request stream is independent of how many clients exist and of the
    order clients are visited in.  The request plane ({!Driver.run})
    advances each client's stream one round at a time. *)

type op_kind = Read | Write | Publish

val class_name : op_kind -> string
(** ["read"], ["write"], ["publish"] — the wire names used by
    {!Simnet.Trace.Request} events and report tables. *)

type request = {
  client : int;
  seq : int;  (** per-client issue index, 0-based *)
  arrival : int;  (** round the request enters the system *)
  op : op_kind;
  key : int;  (** key in [0, keys) (for publishes: the topic is key + 1) *)
}

val client_stream : seed:int64 -> client:int -> Prng.Stream.t
(** The client's private stream: a pure function of [(seed, client)]. *)

val draw_request : Spec.t -> Prng.Stream.t -> op_kind * int
(** One (op, key) draw: the operation class from the mix, then the key
    from the popularity distribution.  Exactly this order, so closed-loop
    and open-loop clients consume streams identically.  Apply it to the
    spec once and keep the result: that partial application builds the
    spec's Zipf table, and the sampler it returns draws from any
    client's stream. *)

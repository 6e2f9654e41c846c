(** Per-round communication metrics for a simulated network.

    Tracks, for the current round, the number of messages and bits each node
    has sent and received; [finish_round] folds these into running summaries
    and resets the per-node counters.  The headline quantity is
    [max_node_bits]: the worst per-node communication work in any round,
    which the paper requires to stay polylogarithmic. *)

type t

type round_summary = {
  round : int;
  msgs : int;  (** messages delivered this round *)
  bits : int;  (** bits sent + received this round, summed over nodes *)
  max_node_bits : int;  (** max over nodes of (sent + received bits) *)
  max_node_msgs : int;  (** max over nodes of (sent + received messages) *)
}

val create : n:int -> t
val on_send : t -> node:int -> bits:int -> unit
val on_recv : t -> node:int -> bits:int -> unit

val finish_round : t -> round_summary
(** Summarize and reset the per-node counters; rounds number from 0. *)

val rounds : t -> int
val total_msgs : t -> int
val total_bits : t -> int
val max_node_bits_ever : t -> int
(** Max per-node per-round communication work seen over the whole run. *)

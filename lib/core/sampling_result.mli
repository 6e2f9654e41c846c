(** Common result shape for the node sampling primitives (rapid and plain),
    so experiment harnesses can compare them uniformly. *)

type t = {
  samples : int array array;
      (** [samples.(v)] = node ids sampled by node [v]. *)
  rounds : int;  (** communication rounds consumed (final attempt only) *)
  walk_length : int;
      (** length of the (implicit) random walks behind the samples *)
  schedule : int array;
      (** multiset size schedule [m_0 .. m_T] (rapid) or [[|k|]] (plain) *)
  underflows : int;
      (** extractions that found an empty multiset in the final attempt;
          0 iff the run "succeeded" in the sense of Lemmas 7/9 *)
  retries : int;
      (** full re-attempts performed under a {!Retry.policy} (0 without
          one, or when the first attempt succeeded) *)
  escalations : int;
      (** retries that actually raised the provisioning constant [c]
          (a retry at the [c_cap] no longer escalates) *)
  max_round_node_bits : int;
      (** worst per-node communication work in any round, in bits *)
  total_bits : int;
}

val samples_per_node : t -> int
(** Minimum number of samples delivered to any node. *)

(** Per-round message accounting of the direct samplers: a per-node load
    counter giving the [Round] events and bit totals {!Simnet.Metrics}
    would give, for messages that all have the same size. *)
type tally

val tally : ?index_bits:int -> n:int -> Simnet.Trace.t -> tally
(** Every message carries one node id plus [index_bits] (default 0). *)

val load : tally -> int array
(** [(load t).(v)]: messages node [v] sent or received this round. *)

val finish_round : tally -> round:int -> msgs:int -> unit
(** Close a round of [msgs] messages: fold the loads into the totals, emit
    one [Round] event and reset the loads. *)

val result : tally -> samples:int array array -> rounds:int ->
  walk_length:int -> schedule:int array -> underflows:int -> t
(** One attempt's result (no retries), with the tally's bit totals. *)

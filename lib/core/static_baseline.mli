(** Ablation A2: a *static* H-graph subjected to the same churn stream, with
    no reconfiguration.  Leavers vanish immediately (their edges die with
    them); joiners attach to their introducer by a single edge, as a naive
    overlay would.  Used as the baseline in experiment E7: under constant
    adversarial churn this network fragments while the reconfigured network
    of {!Churn_network} does not. *)

type t

val create : ?d:int -> rng:Prng.Stream.t -> n:int -> unit -> t
val alive_count : t -> int
val node_count : t -> int
(** All nodes ever, dead or alive. *)

val alive_positions : t -> int array

val apply :
  t -> leaves:int array -> join_introducers:int array -> unit
(** [leaves] are node indices to kill (dead ones ignored); each entry of
    [join_introducers] creates a fresh node linked to that (alive)
    introducer.  Raises [Invalid_argument] for a dead introducer. *)

val is_connected : t -> bool
(** Connectivity of the subgraph induced by the alive nodes. *)

val largest_component_fraction : t -> float
(** Size of the largest alive component over the number of alive nodes;
    1.0 when connected, 0 when nobody is alive. *)

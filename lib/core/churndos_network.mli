(** The churn- and DoS-resistant network of Section 6: the hypercube-of-
    groups design of Section 5 with variable-dimension supernodes that split
    and merge to keep every group size within Equation (1),
    c d(x) - c < |R(x)| < 2 c d(x).

    Windows work as in {!Dos_network}: the groups simulate the (now
    nonuniformly weighted: supernode x is sampled with probability
    2^(-d(x))) sampling primitive while the adversary blocks per round; at
    the window boundary the accumulated churn is applied — joiners were
    delegated to a member's group, leavers stayed to relay — every node is
    rescattered, and supernodes split/merge until Equation (1) holds again.

    Lemma 18's invariants are exposed per window so experiments can check
    them: all dimensions within a spread of 2 and inside
    (0.5 log2 n, log2 n + 2). *)

type window_report = {
  window : int;
  n_before : int;
  n_after : int;
  joined : int;
  left : int;
  reconfigured : bool;  (** false iff some group starved (state loss) *)
  starved_rounds : int;
  disconnected_rounds : int;
  min_group_size : int;
  max_group_size : int;
  min_dim : int;
  max_dim : int;
  dim_spread : int;  (** max_dim - min_dim; Lemma 18 says <= 2 *)
  eq1_violations : int;
      (** groups outside Equation (1) after the window's splits/merges *)
  splits : int;
  merges : int;
  supernodes : int;
}

type t

val create :
  ?c:int ->
  ?trace:Simnet.Trace.t ->
  ?faults:Simnet.Faults.plan ->
  rng:Prng.Stream.t ->
  n:int ->
  unit ->
  t
(** [c] (default 8) is the integral constant of Equation (1).  The initial
    tree is a uniform hypercube of the dimension d fixed by the proof of
    Lemma 18 (the unique d with 2^d * 2cd < n <= 2^(d+1) * 2c(d+1)), with
    nodes scattered uniformly and initial splits/merges applied.

    [trace] (default {!Simnet.Trace.null}) records one ["churndos/window"]
    note per window with the report's headline fields.  [faults] is applied
    through {!Simnet.Runtime}: only the crash schedule is supported (crashed
    nodes count as blocked every round until they recover) — groups exchange
    aggregate state rather than individual request/reply legs, so per-message
    link faults (drop/duplicate/delay/reorder) have no honest application
    point and are rejected with [Invalid_argument].  Fault streams are
    size-independently keyed, so windows that grow the network never alias
    them. *)

val n : t -> int
val period : t -> int
(** Rounds per window under the current size. *)

val supernode_count : t -> int
val group_of : t -> int array
(** Current node -> group assignment as dense group indices aligned with
    {!dims}. *)

val epoch : t -> int
(** Moves whenever a window boundary replaces the assignment, so rounds of
    one epoch have equal {!group_of}. *)

val dims : t -> int array

val run_window :
  t ->
  blocked_for_round:(round:int -> group_of:int array -> n:int -> bool array) ->
  joins:int ->
  leave_frac:float ->
  window_report
(** Run one full window.  [blocked_for_round] is called once per round with
    the absolute round number and the current assignment (so the caller's
    adversary can maintain its own lateness buffer); it must return a
    blocked array of size [n].  [joins] new nodes arrive during the window
    (delegated to uniformly random members); a [leave_frac] fraction departs
    at its end. *)

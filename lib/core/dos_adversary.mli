(** DoS adversaries: (1/2 - eps)-bounded, t-late (Section 1.1).

    The adversary observes only topology — here, the node -> supernode
    assignment — and only with a delay of at least its lateness.  [observe]
    must be called once per network round with the *current* assignment; the
    internal {!Simnet.Snapshots} buffer enforces the delay, so strategy code
    can never touch fresher data.  With [lateness = 0] the adversary is
    fully informed, the regime in which the paper shows any low-degree
    network must die.

    Memory: the buffer keeps one snapshot per topology epoch among the
    rounds it spans, at most [1 + ceil (lateness / period)] with a
    reconfiguration every [period] rounds.  A snapshot is one assignment
    (whole, as [Isolate_node] draws its victim at {!blocked_set} time), its
    group membership and the groups' size order. *)

type strategy =
  | Random_blocking  (** budget spent on uniformly random nodes (control) *)
  | Group_kill
      (** blocks whole groups, smallest first, from the stale view —
          starves groups outright when the view is fresh *)
  | Isolate_node
      (** picks a victim and blocks its group fellows and all members of
          neighboring groups, isolating the victim when the view is fresh;
          leftover budget is spent randomly *)

val all : strategy list
val to_string : strategy -> string

type t

val create :
  ?trace:Simnet.Trace.t ->
  ?staleness:Simnet.Snapshots.staleness ->
  strategy ->
  rng:Prng.Stream.t ->
  lateness:int ->
  frac:float ->
  t
(** [frac] is the fraction of nodes blocked per round; the paper's bound is
    [frac = 1/2 - eps] for some [eps > 0].  Raises [Invalid_argument] if
    [frac] is outside [0, 1).  [trace] (default {!Simnet.Trace.null})
    receives one [Adversary] event per {!blocked_set} call with the
    strategy, budget, and realized blocked count.  [staleness], when given,
    replaces the fixed [lateness] with a per-round drawn lateness (on a
    dedicated child of [rng]); omitting it keeps runs byte-identical to
    the pre-staleness behavior. *)

val observe : t -> epoch:int -> (unit -> int array) -> unit
(** Record this round's assignment, of topology epoch [epoch]: the function
    is called only when [epoch] moved, and returns a copy nobody changes
    afterwards, e.g. {!Dos_network.group_of}. *)

val blocked_set : t -> cube:Topology.Hypercube.t -> n:int -> bool array
(** The blocked set for the current round.  Until a snapshot old enough to
    see exists, strategies fall back to random blocking.  The next call
    overwrites the array, so a caller that keeps a round's set copies it. *)

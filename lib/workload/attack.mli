(** Request-plane adversaries for workload runs.

    The DoS-style adversary of Section 1.1, specialized to hurting the
    workload: it spends a budget of [frac * n] blocked servers per round,
    and — in the [Group_kill] strategy — aims it at the servers that (it
    believes) represent the supernodes owning the most popular keys, i.e.
    exactly the groups the Zipf head hammers.  Like every adversary in this
    repo it is t-late: it only sees the server-to-group assignment through a
    {!Simnet.Snapshots} window [lateness] rounds old, so periodic
    reconfiguration invalidates its aim while a static network leaves the
    stale view accurate forever.

    Memory: a snapshot is [Group_kill]'s target list, at most [budget] ids,
    built once per reshuffle ({!Apps.Robust_dht.epoch}); the window holds
    [1 + ceil (lateness / period)] of them, 2 at [lateness = period]. *)

type strategy =
  | No_attack
  | Random_blocking  (** budget spent on uniformly random servers *)
  | Group_kill
      (** budget spent on the (stale-view) members of the hottest
          supernodes, hottest first *)

val parse_strategy : string -> (strategy, string) result
(** ["none"], ["random"], or ["group-kill"]. *)

val strategy_to_string : strategy -> string

type t

val create :
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  ?hot_keys:(int * float) array ->
  strategy:strategy ->
  frac:float ->
  rng:Prng.Stream.t ->
  dht:Apps.Robust_dht.t ->
  spec:Spec.t ->
  unit ->
  t
(** [frac] in [0, 1) is the blocked-server budget as a fraction of [n];
    [lateness] (default 0) is the observation delay in rounds, replaced by
    a per-round seeded draw (on a dedicated child of [rng]) when
    [staleness] is given.  The hot
    supernode ranking is precomputed from the spec's popularity law: each
    supernode's heat is the summed popularity weight of the keys it owns
    (Zipf weight [1/(key+1)^s], uniform weight 1), ties broken by index.
    [hot_keys], if given, replaces that ranking input with explicit
    [(key, weight)] pairs — composite applications (whose hot keys are
    packed composites, not [0 .. keys-1]) pass their real heat map.
    Raises [Invalid_argument] on [frac] outside [0, 1). *)

val observe : t -> unit
(** Push the current server-to-group assignment into the adversary's
    delayed-snapshot window; call once per round, after any
    reconfiguration.  A round whose DHT epoch is the one last observed
    pushes the target list it already holds again, allocating nothing; a
    round after a reshuffle builds it from the hot supernodes' members. *)

val mark : t -> into:bool array -> unit
(** Spend this round's budget: set [into.(v) <- true] for each server the
    adversary blocks.  [Group_kill] blocks nothing while no snapshot is old
    enough to see, and otherwise the viewed target list.  Neither strategy
    allocates.  The budget counts the adversary's own picks, whether or not
    churn or faults already blocked the same server. *)

(** Stale-view DoS strategies against the Chord ring, mirroring
    {!Workload.Attack} shape-for-shape so both backends face the same
    adversary plane.

    The succ-kill attacker is the Chord analogue of group-kill: from a
    t-late snapshot of membership and successor lists it blocks, hottest
    key first, the key's {e viewed} owner and every member of that owner's
    {e viewed} successor list — wiping the whole believed replica chain —
    until the budget [frac * n] is spent.  Because the id assignment is
    static, the snapshot's aim never goes stale: only membership changes
    age, which is exactly why Chord collapses where the reconfiguration
    networks (whose assignment is redrawn every period) shrug the same
    budget off.

    Memory: succ-kill's marks depend only on the viewed topology, the hot
    order and the budget, so a snapshot is the target list, at most
    [budget] ids, and the window holds [1 + lateness] of them. *)

type strategy = No_attack | Random_blocking | Succ_kill

val parse_strategy : string -> (strategy, string) result
(** ["none"], ["random"], ["succ-kill"] — plus ["group-kill"] as an alias
    for succ-kill, so one scenario spec drives both backends. *)

val strategy_to_string : strategy -> string

type t

val create :
  ?lateness:int ->
  ?staleness:Simnet.Snapshots.staleness ->
  strategy:strategy ->
  frac:float ->
  rng:Prng.Stream.t ->
  ring:Ring.t ->
  hot_ids:int array ->
  unit ->
  t
(** [hot_ids] are key identifiers (already hashed) ranked hottest first.
    Drawn staleness splits a dedicated child off [rng], exactly as the
    workload attack plane does.  Raises [Invalid_argument] unless
    [0 <= frac < 1]. *)

val observe : t -> unit
(** Push this round's succ-kill targets into the t-late snapshot buffer
    (succ-kill only; the other strategies keep no state). *)

val mark : t -> into:bool array -> unit
(** Spend the budget into the blocked set.  Each node costs one unit the
    first time this call blocks it, matching the workload attacker's
    budget discipline. *)

(** Seeded corrupted-topology injection.

    The paper's resilience theorems assume the adversary starts from a
    {e correct} topology; this module manufactures the states outside that
    envelope so {!Core.Stabilize} can measure recovery from them.  A
    {!spec} names a corruption {!cls}, a severity (fraction of pointers
    per cycle to damage) and a seed; {!apply} is a pure function of the
    spec and the input topology — all randomness comes from a dedicated
    {!Prng.Stream} keyed by (seed, class, severity), so the same spec
    yields byte-identical corrupted states and never perturbs the repair
    run's own streams.

    Every class guarantees that its output exhibits the
    {!Invariants.violation} kind named by {!advertised} (pinned by qcheck
    in [test/test_simnet_corruption.ml]):

    {ul
     {- [branch] — victims point at a non-victim's successor: a
        successor collision ([successor_not_injective]).}
     {- [split] — the Hamilton orbit is cut into ≥ 2 closed segments
        ([not_single_cycle]); the array stays a permutation.}
     {- [range] — victims point outside [[0, m)] on either side
        ([successor_out_of_range]).}
     {- [crosslink] — victims borrow the pointer of the {e next} cycle in
        the family; collisions are forced if borrowing happens to keep
        every cycle a permutation ([successor_not_injective]).}
     {- [partition] — every cycle is rewired so a random node bipartition
        never crosses sides: the union graph splits ([disconnected]).}
     {- [stale] — victims point at identifiers in [[m, 2m)], the shape
        left by departed nodes ([successor_out_of_range]).}}

    Spec strings (parsed by {!parse_spec}, emitted by {!to_spec}) are
    comma-separated [KEY=VALUE] pairs in the {!Faults} idiom:
    [class=branch,severity=0.3,seed=7].  [class] is mandatory; [severity]
    defaults to [0.25] and must lie in [(0, 1]]; [seed] defaults to a
    fixed constant. *)

type cls =
  | Branch
  | Split
  | Out_of_range
  | Cross_link
  | Partition
  | Stale_pointer

val all : cls list
(** Every class, in a stable order (the sweep-axis order of e17). *)

val class_to_string : cls -> string
val class_of_string : string -> (cls, string) result

val advertised : cls -> string
(** The {!Invariants.kind_of} string this class guarantees to produce. *)

type spec = { cls : cls; severity : float; seed : int64 }

val make : ?severity:float -> ?seed:int64 -> cls -> spec
(** Raises [Invalid_argument] unless [severity] is in [(0, 1]]. *)

val parse_spec : string -> (spec, string) result
val to_spec : spec -> string
(** Inverse of {!parse_spec}: omits values equal to the defaults. *)

val stream : spec -> Prng.Stream.t
(** The dedicated stream {!apply} draws from — exposed so tests can pin
    the keying. *)

val apply : spec -> int array array -> int array array
(** [apply spec succs] returns a corrupted copy of the cycle family
    [succs] (the input is not modified).  The input must be a valid
    family of ≥ 1 Hamilton cycles over the same [m ≥ 4] nodes; raises
    [Invalid_argument] otherwise.  The output exhibits the violation
    kind [advertised spec.cls] under {!Invariants.check_all}. *)

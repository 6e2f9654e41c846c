(** Declarative parameter grids.

    A grid is a list of {!axis} values; {!expand} takes their cartesian
    product — first axis slowest, matching the nesting order of the
    hand-written loops grids replace — and yields one {!cell} per
    combination.  Every cell carries:

    - a stable {b cell id}, the [;]-joined [axis=value] bindings (or
      ["default"] for an empty grid), which keys checkpoint records;
    - a {!Simnet.Scenario.t} built by applying the scenario-aware axes
      to the base scenario;
    - a {b seed} derived purely from (sweep name, cell id), so a cell's
      randomness does not depend on expansion order, sharding, or which
      other cells exist — the property checkpoint resume relies on.

    Axes come in two flavours: {!scenario_key} axes route their values
    through {!Simnet.Scenario.of_args} (so ["n"], ["faults"], ["retry"],
    ... validate exactly like the CLI); free axes ({!floats},
    {!strings}) only record a binding the cell function reads back with
    {!binding} and friends. *)

type axis

val scenario_key : string -> string list -> axis
(** [scenario_key key values]: each value is applied to the cell's
    scenario as [key=value] via {!Simnet.Scenario.of_args}; invalid
    values surface as an [Error] from {!expand} naming the cell. *)

val floats : string -> float list -> axis
(** Free axis over floats; labels use the shortest decimal form that
    parses back to the same float. *)

val strings : string -> string list -> axis
(** Free axis over strings. *)

type cell = {
  index : int;  (** position in expansion order, 0-based *)
  id : string;  (** stable cell id, e.g. ["drop=0.05;retry=3"] *)
  bindings : (string * string) list;  (** axis name -> value label *)
  scenario : Simnet.Scenario.t;
  seed : int64;  (** derived from (sweep name, cell id) *)
}

val expand :
  ?base:Simnet.Scenario.t ->
  sweep:string ->
  axis list ->
  (cell list, string) result
(** Cartesian product of the axes over [base] (default
    {!Simnet.Scenario.default}), in deterministic order.  Errors on a
    duplicate axis name, an empty axis, a repeated value within an axis
    (either would collide cell ids), or a scenario-key value the
    scenario parser rejects. *)

val cell_rng : cell -> Prng.Stream.t
(** Root PRNG stream of the cell, seeded from [cell.seed]. *)

val binding : cell -> string -> string
(** Value label of the named axis.  Raises [Invalid_argument] if the
    cell has no such axis. *)

val int_binding : cell -> string -> int
val float_binding : cell -> string -> float

val seed_of : sweep:string -> string -> int64
(** [seed_of ~sweep cell_id]: the seed derivation (FNV-1a over the pair,
    finished with the SplitMix64 avalanche), exposed for tests and for
    drivers that want cell-keyed child seeds. *)

(** Lossless shortest-roundtrip decimal rendering of floats.

    One shared implementation for every text artifact that must re-parse
    bit-for-bit: checkpoint records, trace lines, scenario specs, sweep
    axis labels.  [float_of_string (repr f)] equals [f] exactly for every
    float, including negative zero, subnormals and the extremes of the
    double range (nan maps to ["nan"], infinities to ["inf"]/["-inf"]). *)

val repr : float -> string
(** Shortest decimal form ([%.15g], falling back to [%.17g] when that is
    not exact) that parses back to the same float. *)

val json_repr : float -> string
(** Like {!repr} but guaranteed to contain a float marker character
    (['.'], ['e'], ['E'], or the letters of nan/inf), appending [".0"]
    when needed, so decoders that infer the numeric type from the token
    shape decode a float and not an integer.  [3.0] renders as ["3.0"],
    [-0.0] as ["-0.0"]. *)

(** Log-bucketed histograms for latency-like quantities.

    A log-histogram covers all non-negative integers with bounded relative
    error: values below [sub_buckets] get one exact cell each, and every
    further power-of-two octave is divided into [sub_buckets] linear cells,
    so a recorded value is attributed to a cell whose width is at most
    [value / sub_buckets] (HdrHistogram-style indexing, fixed precision).

    Everything is integer counts, so shard-and-merge is exact: merging
    per-domain (or per-class) shards yields byte-identical quantiles to
    sequential accumulation, in any shard split — the property the workload
    driver relies on to stay deterministic under [Parallel.map]. *)

type t

val create : unit -> t
(** Empty histogram.  [sub_buckets] is fixed at 32, giving <= 3.2% relative
    quantile error in every octave. *)

val sub_buckets : int
(** Cells per octave (32). *)

val add : t -> int -> unit
(** Record one observation.  Raises [Invalid_argument] on negatives. *)

val add_many : t -> int -> int -> unit
(** [add_many t v k] records value [v] [k] times ([k >= 0]). *)

val total : t -> int

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0,1]: upper bound of the lowest
    non-empty cell at which the cumulative count reaches the rank
    [max 1 (ceil (p * total))] — an overestimate of the exact order
    statistic by at most one cell width, and never above the largest
    value recorded.  [p = 0.0] selects the first observation, [p = 1.0]
    the last.  Raises [Invalid_argument] if the histogram is empty or
    [p] is outside [0,1] (including nan). *)

val mean : t -> float
(** Mean of the cell midpoints, weighted by count (0 when empty): an
    unbiased-within-a-cell estimate of the sample mean, exact whenever
    every observation lands in a single-valued cell (values below
    [2 * sub_buckets]), and otherwise off by at most half a cell width
    per observation. *)

val buckets : t -> (int * int * int) list
(** Non-empty cells as [(lo, hi, count)] triples, increasing; exact
    representation of the histogram's state (used by tests and exporters). *)

val merge : t -> t -> t
(** Fresh histogram holding the exact cell-wise sum of both. *)

val equal : t -> t -> bool
(** Cell-wise equality (same counts in every cell, same max). *)

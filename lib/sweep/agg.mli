(** Aggregation of per-cell results.

    Cells return plain values; the harness merges them {e after} the
    fan-out, in cell order.  Nothing here is mutable or global — this
    module replaces the [Exp_util.Bench] atomics the bench harness used
    to update from inside worker domains, which made sweeps impossible
    to resume or reproduce cell-by-cell. *)

type bench = {
  rounds : int;  (** simulated communication rounds *)
  total_bits : int;  (** bits sent, summed over nodes and rounds *)
  max_node_bits : int;  (** worst per-node round work observed *)
}
(** The headline counters of one experiment cell (the BENCH_e*.json
    quantities).  [bench_add] is commutative and associative — sums plus
    a max — so any merge order yields the same totals the old atomics
    accumulated. *)

val bench_zero : bench
val bench_add : bench -> bench -> bench
val bench_sum : bench list -> bench

val rounds : int -> bench
(** [rounds k] is [bench_zero] with [rounds = k]; composes with
    [bench_add] to translate the old imperative [add_rounds k] calls. *)

val bits : int -> bench
val node_bits : int -> bench
(** [node_bits b] contributes [b] to the running [max_node_bits] max. *)

val bench_pairs : bench -> (string * Simnet.Trace.value) list
(** Flat encoding for sweep checkpoint records. *)

val bench_of_pairs : (string * Simnet.Trace.value) list -> bench option
(** Inverse of {!bench_pairs}; [None] if any counter is missing. *)

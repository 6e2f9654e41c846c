(* Shared helpers for the experiment harness. *)

let master_seed = 0x2016_5AAAL

let seed_for label trial =
  (* Derive a stable seed per (experiment, trial). *)
  let h = Hashtbl.hash (label, trial) in
  Prng.Splitmix64.mix (Int64.add master_seed (Int64.of_int h))

let rng_for label trial = Prng.Stream.of_seed (seed_for label trial)

let ns_pow2 lo hi = List.init (hi - lo + 1) (fun i -> 1 lsl (lo + i))

let mean_of_int_list l =
  if l = [] then 0.0
  else
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let max_of_int_list l = List.fold_left max min_int l

let pct x = Stats.Table.cell_pct x
let flt ?decimals x = Stats.Table.cell_float ?decimals x
let int_c = Stats.Table.cell_int
let bool_c = Stats.Table.cell_bool

let growth_of_series series =
  Stats.Fit.growth_to_string (Stats.Fit.classify_growth (Array.of_list series))

(* ---------- machine-readable per-experiment summaries ---------- *)

(* The headline quantities of one experiment as a plain Sweep.Agg.bench
   value.  Experiments return their record (each [unit -> Bench.t] in
   main.ml's index); parallel fan-outs return one record per cell and the
   harness sums them — [Agg.bench_add] is commutative and associative, so
   the totals are identical to what the retired global atomics
   accumulated, in any merge order. *)
module Bench = struct
  type t = Sweep.Agg.bench

  let zero = Sweep.Agg.bench_zero
  let add = Sweep.Agg.bench_add
  let sum = Sweep.Agg.bench_sum
  let rounds = Sweep.Agg.rounds
  let bits = Sweep.Agg.bits
  let node_bits = Sweep.Agg.node_bits

  let of_result (r : Core.Sampling_result.t) =
    {
      Sweep.Agg.rounds = r.Core.Sampling_result.rounds;
      total_bits = r.Core.Sampling_result.total_bits;
      max_node_bits = r.Core.Sampling_result.max_round_node_bits;
    }

  let of_metrics (m : Simnet.Metrics.t) =
    {
      Sweep.Agg.rounds = Simnet.Metrics.rounds m;
      total_bits = Simnet.Metrics.total_bits m;
      max_node_bits = Simnet.Metrics.max_node_bits_ever m;
    }

  let to_json ~name ~wall_s (b : t) =
    Printf.sprintf
      {|{"experiment":"%s","rounds":%d,"total_bits":%d,"max_node_bits":%d,"wall_s":%.3f}|}
      name b.Sweep.Agg.rounds b.Sweep.Agg.total_bits b.Sweep.Agg.max_node_bits
      wall_s
end

(* Single-domain accumulator for the sequential experiments: [note]
   folds a record in, [total] reads the running sum.  A plain ref, not
   an atomic — never share one across domains (parallel experiments
   return per-cell records instead). *)
let tally () =
  let acc = ref Bench.zero in
  ((fun b -> acc := Bench.add !acc b), fun () -> !acc)

(* ---------- Sweep plumbing for the ported fan-outs ---------- *)

(* Checkpoint codec for experiments whose cells produce one printed
   table row plus their bench counters: row cells become col0..colN
   string fields, the counters ride along as Agg.bench_pairs. *)
let row_codec : (string list * Sweep.Agg.bench) Sweep.Exec.codec =
  {
    Sweep.Exec.encode =
      (fun (row, b) ->
        List.mapi
          (fun i s -> (Printf.sprintf "col%d" i, Simnet.Trace.String s))
          row
        @ Sweep.Agg.bench_pairs b);
    decode =
      (fun pairs ->
        let row =
          List.filter_map
            (fun (k, v) ->
              match v with
              | Simnet.Trace.String s when String.starts_with ~prefix:"col" k ->
                  Some s
              | _ -> None)
            pairs
        in
        Option.map (fun b -> (row, b)) (Sweep.Agg.bench_of_pairs pairs))
  }

(* Fan a grid of table cells out through Sweep.Exec and return the rows
   (in cell order) plus the summed counters. *)
let sweep_rows ?domains ~sweep cells f =
  let outcomes =
    Sweep.Exec.run ?domains ~sweep ~codec:row_codec cells
      (fun ~trace:_ cell -> f cell)
  in
  ( List.map (fun (o : _ Sweep.Exec.outcome) -> fst o.Sweep.Exec.value) outcomes,
    Bench.sum (List.map (fun (o : _ Sweep.Exec.outcome) -> snd o.Sweep.Exec.value) outcomes) )

(* Expand a grid or die: experiment grids are static, so an expansion
   error is a programming error, not an input error. *)
let grid ~sweep axes =
  match Sweep.Grid.expand ~sweep axes with
  | Ok cells -> cells
  | Error e -> failwith e

(* Extra headline fields for the current experiment's BENCH_<name>.json
   summary: [set_extra key json] queues a `"key":json` pair (the value is
   a raw JSON fragment, e.g. a number or a quoted string) that main.ml
   splices into the summary object and clears after writing.  Use for
   derived quantities a downstream consumer should not have to re-parse
   out of the printed table — e.g. E18's resilience-cliff location. *)
let extras : (string * string) list ref = ref []
let set_extra key json = extras := (key, json) :: !extras

let take_extras () =
  let e = List.rev !extras in
  extras := [];
  e

(* The trace sink of the current harness invocation (installed by main.ml
   from --trace; Trace.null otherwise).  Experiments pass [trace ()] to the
   sequential protocol runs they want recorded; parallel fan-outs keep the
   null trace, since interleaved emission would not be deterministic. *)
let trace_sink = ref Simnet.Trace.null
let set_trace t = trace_sink := t
let trace () = !trace_sink

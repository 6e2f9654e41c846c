(* Engine scaling curve: the sharded engine's one delivery path
   ({!Simnet.Engine.deliver_and_step}) at n up to 10^6 with a fixed
   fan-out, sweeping the worker-domain count, and writes BENCH_engine.json
   with throughput plus the engine's resident heap per node (live words
   after a major GC, minus the pre-creation baseline — the steady-state
   footprint of the grown-once planes).

   Two guards keep the numbers honest: every point runs the same total
   message budget (never fewer than 4 timed rounds, so large-n points are
   not a single noisy round), and one untimed warm-up round grows every
   lane and shard plane to steady state before the clock starts.  The
   delivered-payload checksum must agree across all domain counts at each
   n — the determinism contract, spot-checked on every bench run.  The
   file's header records the core count and the OCaml version. *)

let curve_ns = [ 4096; 16384; 65536; 262144; 1048576 ]
let curve_domains = [ 1; 2; 4; 8 ]
let curve_fanout = 8
let curve_budget = 16 * 1024 * 1024

(* (rate, resident bytes/node, checksum) for one (n, domains) point. *)
let curve_point ~domains:dd cn =
  let crounds = max 4 (curve_budget / (cn * curve_fanout)) in
  let coffsets =
    let rng = Prng.Stream.of_seed 7L in
    Array.init curve_fanout (fun _ -> 1 + Prng.Stream.int rng (cn - 1))
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let eng = Simnet.Engine.create ~domains:dd ~n:cn () in
  let acc = Array.make cn 0 in
  let step () =
    Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me ~inbox ->
        Simnet.Engine.slice_iter
          (fun ~src:_ msg -> acc.(me) <- acc.(me) + msg)
          inbox;
        for j = 0 to curve_fanout - 1 do
          Simnet.Engine.send eng ~src:me ~dst:((me + coffsets.(j)) mod cn) me
        done)
  in
  (* one untimed warmup round grows the buffers to steady state *)
  step ();
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let resident_per_node =
    float_of_int ((live - live0) * (Sys.word_size / 8)) /. float_of_int cn
  in
  let wall0 = Unix.gettimeofday () in
  for _ = 1 to crounds do
    step ()
  done;
  let wall = Unix.gettimeofday () -. wall0 in
  let rate = float_of_int (cn * curve_fanout * crounds) /. wall in
  let checksum = Array.fold_left ( + ) 0 acc in
  Printf.printf
    "  n=%-8d domains=%d shards=%-3d rounds=%-5d %10.2f Mmsg/s  %8.1f \
     bytes/node\n\
     %!"
    cn dd
    (Simnet.Engine.shard_count eng)
    crounds (rate /. 1e6) resident_per_node;
  (rate, resident_per_node, checksum)

let curve_points cn =
  let entries =
    List.map
      (fun dd ->
        let rate, resident, checksum = curve_point ~domains:dd cn in
        ( Printf.sprintf
            {|{"n":%d,"domains":%d,"rounds":%d,"msgs_per_sec":%.0f,"resident_bytes_per_node":%.1f}|}
            cn dd
            (max 4 (curve_budget / (cn * curve_fanout)))
            rate resident,
          checksum ))
      curve_domains
  in
  (match entries with
  | (_, reference) :: rest ->
      List.iter
        (fun (_, c) ->
          if c <> reference then
            failwith
              (Printf.sprintf
                 "engine bench: checksum diverged across domains at n=%d" cn))
        rest
  | [] -> ());
  List.map fst entries

let run () =
  Printf.printf
    "engine scaling curve: fanout=%d, ~%d msgs per point, domains in \
     {%s}\n\
     %!"
    curve_fanout curve_budget
    (String.concat "," (List.map string_of_int curve_domains));
  let curve = List.concat_map curve_points curve_ns in
  (* The header's "n" is the largest point of the curve; bench_gate skips
     the first "n" field before it scans the curve entries.  The header
     also records the host's core count and the compiler, since a rate
     means little without them. *)
  let json =
    Printf.sprintf
      {|{"name":"engine","n":%d,"fanout":%d,"budget":%d,"cores":%d,"ocaml_version":%S,"curve":[%s]}|}
      (List.fold_left max 0 curve_ns)
      curve_fanout curve_budget
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (String.concat "," curve)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline json

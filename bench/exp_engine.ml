(* Engine scaling curve: the engine's one delivery path
   ({!Simnet.Engine.deliver_and_step}) at n up to 10^6 with a fixed
   fan-out, one point per n, and writes BENCH_engine.json with throughput
   plus the engine's resident heap per node (live words after a major GC,
   minus the pre-creation baseline — the steady-state footprint of the
   grown-once message columns; the 32-bit id planes and the offsets live
   outside the heap).

   Two guards keep the numbers honest: every point runs the same total
   message budget (never fewer than 4 timed rounds, so large-n points are
   not a single noisy round), and one untimed warm-up round grows the
   staging plane to steady state before the clock starts.  The file's
   header records the core count and the OCaml version. *)

let curve_ns = [ 4096; 16384; 65536; 262144; 1048576 ]
let curve_fanout = 8
let curve_budget = 16 * 1024 * 1024

(* The JSON curve entry for one n. *)
let curve_point cn =
  let crounds = max 4 (curve_budget / (cn * curve_fanout)) in
  let coffsets =
    let rng = Prng.Stream.of_seed 7L in
    Array.init curve_fanout (fun _ -> 1 + Prng.Stream.int rng (cn - 1))
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let eng = Simnet.Engine.create ~n:cn () in
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
  Printf.printf "  n=%-8d rounds=%-5d %10.2f Mmsg/s  %8.1f bytes/node\n%!" cn
    crounds (rate /. 1e6) resident_per_node;
  Printf.sprintf
    {|{"n":%d,"rounds":%d,"msgs_per_sec":%.0f,"resident_bytes_per_node":%.1f}|}
    cn crounds rate resident_per_node

let run () =
  Printf.printf "engine scaling curve: fanout=%d, ~%d msgs per point\n%!"
    curve_fanout curve_budget;
  let curve = List.map curve_point curve_ns in
  (* The header's "n" is the largest point of the curve; bench_gate skips
     the first "n" field before it scans the curve entries.  The header
     also records the host's core count, the compiler and the dune
     profile, since a rate means little without them. *)
  let json =
    Printf.sprintf
      {|{"name":"engine","n":%d,"fanout":%d,"budget":%d,"cores":%d,"ocaml_version":%S,"profile":%S,"curve":[%s]}|}
      (List.fold_left max 0 curve_ns)
      curve_fanout curve_budget
      (Domain.recommended_domain_count ())
      Sys.ocaml_version Build_profile.profile (String.concat "," curve)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  print_endline json

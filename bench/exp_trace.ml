(* Trace sink micro-benchmark: binary records vs JSONL text.

   Generates one deterministic, request-dominated synthetic event stream
   (the mix a million-node workload run produces: mostly Request events,
   one Round summary per round, the odd Fault), emits it through both the
   JSONL and the binary sink, and writes BENCH_trace.json with bytes per
   event and events per second for each plus the compression ratio.

   An export-equivalence gate rides along, so the bench doubles as an
   end-to-end check of the pipeline it measures: decoding the binary file
   and rendering each event with [Trace.jsonl_of_event] must reproduce
   the JSONL file byte for byte (the property test/cram/trace_bin.t pins
   by md5).

   The bench fails hard if that gate breaks or the binary sink falls
   under 5x fewer bytes per event than JSONL on this mix. *)

let rounds = 2000
let requests_per_round = 48
let seed = 0x7ACEL

(* The synthetic stream, generated once so both sinks see identical
   events.  Everything is derived from one seeded PRNG stream: no wall
   clocks, so the emitted bytes are reproducible run to run. *)
let make_events () =
  let rng = Prng.Stream.of_seed seed in
  let ops = [| "read"; "write"; "publish" |] in
  let statuses = [| "ok"; "ok"; "ok"; "ok"; "timeout"; "failed" |] in
  let events = ref [] in
  let push e = events := e :: !events in
  for round = 0 to rounds - 1 do
    for _ = 1 to requests_per_round do
      let latency = 1 + Prng.Stream.int rng 200 in
      push
        (Simnet.Trace.Request
           {
             op = ops.(Prng.Stream.int rng (Array.length ops));
             round;
             client = Prng.Stream.int rng 4096;
             latency;
             hops = Prng.Stream.int rng 12;
             status = statuses.(Prng.Stream.int rng (Array.length statuses));
           })
    done;
    if Prng.Stream.int rng 4 = 0 then
      push
        (Simnet.Trace.Fault
           {
             kind = "drop";
             round;
             fields =
               [
                 ("src", Simnet.Trace.Int (Prng.Stream.int rng 4096));
                 ("dst", Simnet.Trace.Int (Prng.Stream.int rng 4096));
               ];
           });
    push
      (Simnet.Trace.Round
         {
           round;
           msgs = Prng.Stream.int rng 100_000;
           bits = Prng.Stream.int rng 10_000_000;
           max_node_bits = Prng.Stream.int rng 50_000;
           max_node_msgs = Prng.Stream.int rng 500;
           blocked = Prng.Stream.int rng 64;
         })
  done;
  List.rev !events

(* Emit [events] through a [format] sink into [path]; returns
   (bytes in file, events/sec over emit+close). *)
let measure_sink ~format ~path events =
  let wall0 = Unix.gettimeofday () in
  let t = Simnet.Trace.open_file ~format path in
  List.iter (Simnet.Trace.emit t) events;
  Simnet.Trace.close t;
  let wall = Unix.gettimeofday () -. wall0 in
  let bytes = (Unix.stat path).Unix.st_size in
  (bytes, float_of_int (List.length events) /. wall)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_export_equivalence ~jsonl_path ~bin_path =
  let buf = Buffer.create (1 lsl 20) in
  Simnet.Trace.fold_binary_file bin_path ~init:() ~f:(fun () ev ->
      Buffer.add_string buf (Simnet.Trace.jsonl_of_event ev);
      Buffer.add_char buf '\n');
  if Buffer.contents buf <> read_file jsonl_path then
    failwith "trace bench: binary export does not match the JSONL sink"

let with_temp suffix f =
  let path = Filename.temp_file "trace_bench" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (
    fun () -> f path)

let run () =
  let events = make_events () in
  let n = List.length events in
  Printf.printf
    "trace sink bench: %d events (%d rounds x ~%d requests + faults)\n%!" n
    rounds requests_per_round;
  with_temp ".jsonl" (fun jsonl_path ->
      with_temp ".bin" (fun bin_path ->
          let jsonl_bytes, jsonl_rate =
            measure_sink ~format:Simnet.Trace.Jsonl ~path:jsonl_path events
          in
          let bin_bytes, bin_rate =
            measure_sink ~format:Simnet.Trace.Binary ~path:bin_path events
          in
          check_export_equivalence ~jsonl_path ~bin_path;
          let per_event bytes = float_of_int bytes /. float_of_int n in
          let ratio = per_event jsonl_bytes /. per_event bin_bytes in
          Printf.printf "  %-8s %9d bytes  %6.1f bytes/event  %8.2f Mev/s\n%!"
            "jsonl" jsonl_bytes (per_event jsonl_bytes) (jsonl_rate /. 1e6);
          Printf.printf "  %-8s %9d bytes  %6.1f bytes/event  %8.2f Mev/s\n%!"
            "binary" bin_bytes (per_event bin_bytes) (bin_rate /. 1e6);
          Printf.printf "  ratio: %.2fx fewer bytes/event (binary)\n%!" ratio;
          let json =
            Printf.sprintf
              {|{"name":"trace","events":%d,"jsonl":{"bytes":%d,"bytes_per_event":%.2f,"events_per_sec":%.0f},"bin":{"bytes":%d,"bytes_per_event":%.2f,"events_per_sec":%.0f},"bytes_ratio":%.4f}|}
              n jsonl_bytes (per_event jsonl_bytes) jsonl_rate bin_bytes
              (per_event bin_bytes) bin_rate ratio
          in
          let oc = open_out "BENCH_trace.json" in
          output_string oc json;
          output_char oc '\n';
          close_out oc;
          print_endline json;
          if ratio < 5.0 then
            failwith
              (Printf.sprintf
                 "trace bench: binary sink only %.2fx smaller than JSONL \
                  (expected >= 5x)"
                 ratio)))

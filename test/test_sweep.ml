(* Tests for the declarative sweep engine (lib/sweep): grid expansion,
   cell seeding, checkpoint/resume, and the artifact-identity guarantees
   the bench harness leans on. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_path tag =
  let path = Filename.temp_file ("sweep_" ^ tag) ".jsonl" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

(* ---------- grid expansion ---------- *)

let expand_ok ~sweep axes =
  match Sweep.Grid.expand ~sweep axes with
  | Ok cells -> cells
  | Error e -> Alcotest.failf "expand: %s" e

let test_expand_order_and_ids () =
  let cells =
    expand_ok ~sweep:"g"
      [
        Sweep.Grid.strings "a" [ "x"; "y" ];
        Sweep.Grid.strings "b" [ "1"; "2"; "3" ];
      ]
  in
  Alcotest.(check int) "6 cells" 6 (List.length cells);
  (* first axis slowest: a=x covers indices 0..2 *)
  Alcotest.(check (list string))
    "row-major ids"
    [
      "a=x;b=1"; "a=x;b=2"; "a=x;b=3"; "a=y;b=1"; "a=y;b=2"; "a=y;b=3";
    ]
    (List.map (fun c -> c.Sweep.Grid.id) cells);
  List.iteri
    (fun i c -> Alcotest.(check int) "index" i c.Sweep.Grid.index)
    cells

let test_expand_empty_grid () =
  match expand_ok ~sweep:"g" [] with
  | [ c ] ->
      Alcotest.(check string) "default id" "default" c.Sweep.Grid.id;
      Alcotest.(check int) "index 0" 0 c.Sweep.Grid.index
  | cells -> Alcotest.failf "expected 1 cell, got %d" (List.length cells)

let test_expand_rejects_collisions () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool)
    "duplicate axis name" true
    (is_error
       (Sweep.Grid.expand ~sweep:"g"
          [ Sweep.Grid.strings "a" [ "1" ]; Sweep.Grid.strings "a" [ "x" ] ]));
  Alcotest.(check bool)
    "empty axis" true
    (is_error (Sweep.Grid.expand ~sweep:"g" [ Sweep.Grid.strings "a" [] ]));
  Alcotest.(check bool)
    "repeated value" true
    (is_error
       (Sweep.Grid.expand ~sweep:"g" [ Sweep.Grid.strings "a" [ "2"; "2" ] ]));
  Alcotest.(check bool)
    "bad scenario value" true
    (is_error
       (Sweep.Grid.expand ~sweep:"g" [ Sweep.Grid.scenario_key "n" [ "-3" ] ]))

let test_scenario_axis_applies () =
  let cells =
    expand_ok ~sweep:"g" [ Sweep.Grid.scenario_key "n" [ "64"; "128" ] ]
  in
  Alcotest.(check (list int))
    "scenario carries n" [ 64; 128 ]
    (List.map (fun c -> c.Sweep.Grid.scenario.Simnet.Scenario.n) cells);
  Alcotest.(check (list int))
    "int_binding reads it back" [ 64; 128 ]
    (List.map (fun c -> Sweep.Grid.int_binding c "n") cells)

let test_seed_depends_only_on_name_and_id () =
  let seed = Sweep.Grid.seed_of ~sweep:"s" "a=1" in
  Alcotest.(check bool) "stable" true (seed = Sweep.Grid.seed_of ~sweep:"s" "a=1");
  Alcotest.(check bool)
    "sweep name matters" true
    (seed <> Sweep.Grid.seed_of ~sweep:"t" "a=1");
  Alcotest.(check bool)
    "cell id matters" true
    (seed <> Sweep.Grid.seed_of ~sweep:"s" "a=2");
  (* the same cell produced by a bigger grid keeps its seed *)
  let small = expand_ok ~sweep:"s" [ Sweep.Grid.strings "a" [ "1" ] ] in
  let big = expand_ok ~sweep:"s" [ Sweep.Grid.strings "a" [ "1"; "2"; "3" ] ] in
  let seed_in cells =
    (List.find (fun c -> c.Sweep.Grid.id = "a=1") cells).Sweep.Grid.seed
  in
  Alcotest.(check bool)
    "independent of grid shape" true
    (seed_in small = seed_in big)

(* ---------- execution: a deterministic cell function ---------- *)

let demo_cells () =
  expand_ok ~sweep:"demo"
    [
      Sweep.Grid.scenario_key "n" [ "32"; "64" ];
      Sweep.Grid.floats "c" [ 1.5; 2.0 ];
    ]

let demo_calls = Atomic.make 0

let demo_fn ~trace cell =
  Atomic.incr demo_calls;
  let rng = Sweep.Grid.cell_rng cell in
  Simnet.Trace.emit trace
    (Simnet.Trace.Note
       { name = "cell"; fields = [ ("id", Simnet.Trace.String cell.Sweep.Grid.id) ] });
  [
    ("draw", Simnet.Trace.Int (Prng.Stream.int rng 1_000_000));
    ("c", Simnet.Trace.Float (Sweep.Grid.float_binding cell "c"));
    ("tag", Simnet.Trace.String cell.Sweep.Grid.id);
  ]

let run_demo ?domains ?checkpoint ?trace ?cell_traces () =
  Sweep.Exec.run ?domains ?checkpoint ?trace ?cell_traces ~sweep:"demo"
    ~codec:Sweep.Exec.record_codec (demo_cells ()) demo_fn

let test_outcomes_in_cell_order () =
  let outs = run_demo ~domains:4 () in
  Alcotest.(check (list string))
    "cell order preserved"
    (List.map (fun c -> c.Sweep.Grid.id) (demo_cells ()))
    (List.map (fun (o : _ Sweep.Exec.outcome) -> o.cell.Sweep.Grid.id) outs);
  Alcotest.(check bool)
    "nothing cached without a checkpoint" true
    (List.for_all (fun (o : _ Sweep.Exec.outcome) -> not o.cached) outs)

let test_domain_count_invariance () =
  let a = temp_path "dom1" and b = temp_path "dom4" in
  Fun.protect
    ~finally:(fun () -> cleanup a; cleanup b)
    (fun () ->
      let o1 = run_demo ~domains:1 ~checkpoint:a () in
      let o4 = run_demo ~domains:4 ~checkpoint:b () in
      Alcotest.(check bool)
        "same values" true
        (List.map (fun (o : _ Sweep.Exec.outcome) -> o.value) o1
        = List.map (fun (o : _ Sweep.Exec.outcome) -> o.value) o4);
      Alcotest.(check string)
        "byte-identical artifacts" (read_file a) (read_file b))

let test_resume_equals_fresh () =
  let fresh = temp_path "fresh" and cut = temp_path "cut" in
  Fun.protect
    ~finally:(fun () -> cleanup fresh; cleanup cut)
    (fun () ->
      ignore (run_demo ~domains:2 ~checkpoint:fresh ());
      let artifact = read_file fresh in
      (* interrupt mid-sweep: keep two full records plus a torn final
         line, exactly what a killed process leaves behind *)
      let lines = String.split_on_char '\n' artifact in
      let keep = List.filteri (fun i _ -> i < 2) lines in
      let torn =
        String.concat "\n" keep ^ "\n{\"sweep\":\"demo\",\"cell\":\"trunc"
      in
      let oc = open_out_bin cut in
      output_string oc torn;
      close_out oc;
      Atomic.set demo_calls 0;
      let outs = run_demo ~domains:3 ~checkpoint:cut () in
      Alcotest.(check int)
        "only missing cells recomputed" 2 (Atomic.get demo_calls);
      Alcotest.(check int)
        "two cells served from the checkpoint" 2
        (List.length
           (List.filter (fun (o : _ Sweep.Exec.outcome) -> o.cached) outs));
      Alcotest.(check string)
        "resumed artifact byte-identical" artifact (read_file cut))

let test_foreign_sweep_records_ignored () =
  let path = temp_path "foreign" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc
        "{\"sweep\":\"other\",\"cell\":\"n=32;c=1.5\",\"index\":0,\"repro\":\"\",\"draw\":1}\n";
      close_out oc;
      Atomic.set demo_calls 0;
      ignore (run_demo ~domains:1 ~checkpoint:path ());
      Alcotest.(check int)
        "foreign records don't satisfy cells" 4 (Atomic.get demo_calls))

let test_reserved_payload_key_rejected () =
  match
    Sweep.Exec.run ~domains:1 ~sweep:"demo" ~codec:Sweep.Exec.record_codec
      (demo_cells ())
      (fun ~trace:_ _ -> [ ("cell", Simnet.Trace.Int 1) ])
  with
  | _ -> Alcotest.fail "expected Invalid_argument for reserved key"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "names the key: %s" msg)
        true
        (String.length msg > 0)

let test_progress_events () =
  let path = temp_path "trace" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let trace = Simnet.Trace.open_file path in
      ignore (run_demo ~domains:2 ~trace ());
      Simnet.Trace.close trace;
      let lines =
        String.split_on_char '\n' (String.trim (read_file path))
      in
      Alcotest.(check int) "one event per cell" 4 (List.length lines);
      let completed =
        List.filter_map
          (fun line ->
            match Simnet.Trace.parse_jsonl_line line with
            | Some pairs -> (
                Alcotest.(check bool)
                  "progress kind" true
                  (List.assoc_opt "ev" pairs
                  = Some (Simnet.Trace.String "progress"));
                match List.assoc_opt "completed" pairs with
                | Some (Simnet.Trace.Int c) -> Some c
                | _ -> None)
            | None -> Alcotest.failf "unparsable trace line: %s" line)
          lines
      in
      Alcotest.(check (list int))
        "completed counts 1..4" [ 1; 2; 3; 4 ]
        (List.sort compare completed))

let test_cell_traces () =
  let dir = Filename.temp_file "sweep_celltraces" "" in
  Sys.remove dir;
  let checkpoint = temp_path "celltrace_ckpt" in
  Fun.protect
    ~finally:(fun () ->
      cleanup checkpoint;
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let outs = run_demo ~domains:2 ~checkpoint ~cell_traces:dir () in
      (* every cell produced a binary trace at its deterministic path,
         holding exactly what demo_fn emitted *)
      List.iter
        (fun (o : _ Sweep.Exec.outcome) ->
          let path = Sweep.Exec.cell_trace_path ~dir o.cell in
          Alcotest.(check bool)
            (Printf.sprintf "%s exists" path)
            true (Sys.file_exists path);
          Alcotest.(check bool)
            "is a binary trace" true
            (Simnet.Trace.is_binary_file path);
          match Simnet.Trace.read_binary_file path with
          | [ Simnet.Trace.Note { name = "cell"; fields } ] ->
              Alcotest.(check bool)
                "note names the cell" true
                (fields
                = [ ("id", Simnet.Trace.String o.cell.Sweep.Grid.id) ])
          | evs ->
              Alcotest.failf "unexpected cell trace (%d events)"
                (List.length evs))
        outs;
      (* checkpoint records reference the trace under the reserved key *)
      String.split_on_char '\n' (String.trim (read_file checkpoint))
      |> List.iter (fun line ->
             match Simnet.Trace.parse_jsonl_line line with
             | Some pairs ->
                 Alcotest.(check bool)
                   "record carries a trace path" true
                   (match List.assoc_opt "trace" pairs with
                   | Some (Simnet.Trace.String p) ->
                       String.length p > 0
                       && Filename.check_suffix p ".bin"
                   | _ -> false)
             | None -> Alcotest.failf "unparsable checkpoint line: %s" line))

(* ---------- spec strings ---------- *)

let test_spec_parse () =
  let spec =
    "# demo sweep\nsweep=demo;run=churn\nn=64;seed=9\naxis:n=64|128\nvar:c=1.5|2"
  in
  match Sweep.Spec.parse spec with
  | Error e -> Alcotest.failf "spec parse: %s" e
  | Ok t -> (
      Alcotest.(check string) "name" "demo" t.Sweep.Spec.name;
      Alcotest.(check string) "runner" "churn" t.Sweep.Spec.run;
      Alcotest.(check int) "base seed" 9 t.Sweep.Spec.base.Simnet.Scenario.seed;
      match Sweep.Spec.cells t with
      | Error e -> Alcotest.failf "cells: %s" e
      | Ok cells ->
          Alcotest.(check (list string))
            "expanded ids"
            [ "n=64;c=1.5"; "n=64;c=2"; "n=128;c=1.5"; "n=128;c=2" ]
            (List.map (fun c -> c.Sweep.Grid.id) cells))

let test_spec_rejects_bad_base_key () =
  match Sweep.Spec.parse "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for unknown base key"

(* ---------- scenario round-trip (satellite of the sweep repro field) ---------- *)

let scenario_gen =
  let open QCheck.Gen in
  let opt_string choices = opt (oneofl choices) in
  let* n = int_range 1 100_000 in
  let* d = int_range 2 64 in
  let* seed = int_range 0 1_000_000 in
  let* sampler = opt_string [ "rapid"; "plain" ] in
  let* adversary = opt_string [ "random"; "group-kill" ] in
  let* frac = float_bound_inclusive 1.0 in
  let* lateness = int_range (-1) 64 in
  let* staleness =
    opt
      (oneof
         [
           map (fun n -> Simnet.Snapshots.Fixed n) (int_range 0 16);
           map (fun f -> Simnet.Snapshots.Mixed f) (float_range 0.0 8.0);
           map
             (fun (lo, d) -> Simnet.Snapshots.Uniform (lo, lo + d))
             (pair (int_range 0 8) (int_range 0 8));
         ])
  in
  let* corruption =
    opt
      (let* cls = oneofl Simnet.Corruption.all in
       let* severity = float_range 0.01 1.0 in
       let* cseed = map Int64.of_int (int_range 0 1_000_000) in
       return (Simnet.Corruption.make ~severity ~seed:cseed cls))
  in
  let* retry = int_range 0 9 in
  let* workload = opt_string [ "open:0.25"; "closed:4" ] in
  let* backend = opt_string [ "reconfig"; "chord" ] in
  let chord_knob = opt (int_range 1 32) in
  let* chord_fingers = chord_knob in
  let* chord_succs = chord_knob in
  let* chord_period = chord_knob in
  let* app = opt_string [ "social" ] in
  let* topics = opt (int_range 1 64) in
  let* fanout = opt (int_range 0 8) in
  let* session =
    opt (pair (float_range 0.05 1.0) (int_range 1 32))
  in
  (* -1 is the unset default; 0 is not a valid round count *)
  let* rounds = oneof [ return (-1); int_range 1 99 ] in
  let* domains = int_range 0 8 in
  let* trace = opt_string [ "/tmp/t.jsonl" ] in
  let* trace_format =
    opt (oneofl [ Simnet.Trace.Jsonl; Simnet.Trace.Binary ])
  in
  return
    {
      Simnet.Scenario.default with
      n;
      d;
      seed;
      sampler;
      adversary;
      frac;
      lateness;
      staleness;
      corruption;
      retry;
      workload;
      backend;
      chord_fingers;
      chord_succs;
      chord_period;
      app;
      topics;
      fanout;
      session;
      rounds;
      domains;
      trace;
      trace_format;
    }

let qcheck_scenario_roundtrip =
  QCheck.Test.make ~name:"Scenario.to_spec/parse round-trip" ~count:300
    (QCheck.make scenario_gen) (fun sc ->
      match Simnet.Scenario.parse (Simnet.Scenario.to_spec sc) with
      | Ok sc' -> sc' = sc
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_scenario_roundtrip_with_faults () =
  let spec = "n=256;faults=drop=0.05,crash=2;retry=3;frac=0.25" in
  match Simnet.Scenario.parse spec with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok sc -> (
      match Simnet.Scenario.parse (Simnet.Scenario.to_spec sc) with
      | Error e -> Alcotest.failf "re-parse: %s" e
      | Ok sc' ->
          Alcotest.(check bool) "fault plan survives" true (sc = sc'))

(* ---------- shard-merge aggregation ---------- *)

let test_bench_merge_order_independent () =
  let cells =
    List.init 7 (fun i ->
        {
          Sweep.Agg.rounds = i;
          total_bits = (i * 100) + 1;
          max_node_bits = 1000 - (i * 7);
        })
  in
  let total = Sweep.Agg.bench_sum cells in
  let rev = Sweep.Agg.bench_sum (List.rev cells) in
  Alcotest.(check bool) "sum order-independent" true (total = rev);
  Alcotest.(check int) "rounds" 21 total.Sweep.Agg.rounds;
  Alcotest.(check int) "max over cells" 1000 total.Sweep.Agg.max_node_bits;
  (* the pairs codec round-trips *)
  Alcotest.(check bool)
    "bench pairs round-trip" true
    (Sweep.Agg.bench_of_pairs (Sweep.Agg.bench_pairs total) = Some total)

let () =
  Alcotest.run "sweep"
    [
      ( "grid",
        [
          Alcotest.test_case "row-major order and ids" `Quick
            test_expand_order_and_ids;
          Alcotest.test_case "empty grid" `Quick test_expand_empty_grid;
          Alcotest.test_case "rejects collisions" `Quick
            test_expand_rejects_collisions;
          Alcotest.test_case "scenario axis applies" `Quick
            test_scenario_axis_applies;
          Alcotest.test_case "seed from (sweep, id) only" `Quick
            test_seed_depends_only_on_name_and_id;
        ] );
      ( "exec",
        [
          Alcotest.test_case "outcomes in cell order" `Quick
            test_outcomes_in_cell_order;
          Alcotest.test_case "domain-count invariance" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "resume equals fresh" `Quick
            test_resume_equals_fresh;
          Alcotest.test_case "foreign sweep ignored" `Quick
            test_foreign_sweep_records_ignored;
          Alcotest.test_case "reserved key rejected" `Quick
            test_reserved_payload_key_rejected;
          Alcotest.test_case "progress events" `Quick test_progress_events;
          Alcotest.test_case "per-cell binary traces" `Quick test_cell_traces;
        ] );
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "rejects bad key" `Quick
            test_spec_rejects_bad_base_key;
        ] );
      ( "scenario",
        Alcotest.test_case "faults spec round-trips" `Quick
          test_scenario_roundtrip_with_faults
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_scenario_roundtrip ] );
      ( "agg",
        [
          Alcotest.test_case "bench merge order-independent" `Quick
            test_bench_merge_order_independent;
        ] );
    ]

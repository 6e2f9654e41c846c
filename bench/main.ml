(* Benchmark harness entry point.

   Usage:  dune exec bench/main.exe [-- [--trace FILE] [--json] [e1 e2 ... | all | micro]]

   Each `eK` regenerates the table of experiment K from the experiment
   index in DESIGN.md (the paper has no tables of its own; each experiment
   reproduces the quantitative content of a theorem or lemma).  `all` runs
   every table; `micro` runs the Bechamel wall-clock benches.

   Every experiment additionally writes a machine-readable BENCH_<name>.json
   summary (rounds, total bits, max per-node round bits, wall time) to the
   current directory; `--json` echoes it to stdout as well.  `--trace FILE`
   streams structured events (round summaries, protocol phases) from the
   traced protocol runs to FILE — JSONL, or compact binary if FILE ends in
   `.bin`; see docs/observability.md for the schema. *)

let experiments =
  [
    ("e1", "Thm 2: rapid sampling rounds/work on H-graphs", Exp_sampling.e1);
    ("e2", "Thm 3: rapid sampling rounds/work on the hypercube", Exp_sampling.e2);
    ("e3", "Lemmas 2/3: sampling distribution vs uniform", Exp_sampling.e3);
    ("e4", "Lemmas 7/9: schedule-constant failure threshold", Exp_sampling.e4);
    ("e5", "Lemmas 11-13: reconfiguration internals vs n", Exp_reconfig.e5);
    ("e6", "Lemma 10: uniformity over Hamilton cycles", Exp_reconfig.e6);
    ("e7", "Thm 5: connectivity under adversarial churn", Exp_reconfig.e7);
    ("e8", "Lemmas 16/17: group concentration under attack", Exp_dos.e8);
    ("e9", "Thm 6: survival vs adversary lateness", Exp_dos.e9);
    ("e10", "Thm 7 / Lemma 18: combined churn + DoS", Exp_dos.e10);
    ("e11", "Cor 2: robust anonymous routing", Exp_apps.e11);
    ("e12", "Thm 8: robust DHT and pub-sub", Exp_apps.e12);
    ("e13", "Lemmas 14/15: message-level group simulation", Exp_groupsim.e13);
    ("e14", "Cor 1: expansion preserved across reconfigurations", Exp_expansion.e14);
    ("e15", "Fault model: reply-drop rate x recovery policy", Exp_faults.e15);
    ("e16", "Thm 8 client view: workload latency/goodput under attack", Exp_workload.e16);
    ("e17", "Self-stabilization: recovery from corrupted topologies", Exp_stabilize.e17);
    ("e18", "Staleness sweep: the resilience cliff as t -> 0", Exp_stabilize.e18);
    ("e19", "Backends head to head: reconfiguration vs Chord under attack", Exp_chord.e19);
    ("e20", "Social application: per-class SLOs under attack and sessions", Exp_social.e20);
  ]

let emit_json = ref false

let write_bench_summary name bench wall_s =
  let json = Exp_util.Bench.to_json ~name ~wall_s bench in
  let json =
    match Exp_util.take_extras () with
    | [] -> json
    | extras ->
        (* splice the experiment's extra fields before the closing brace *)
        String.sub json 0 (String.length json - 1)
        ^ String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf ",%S:%s" k v) extras)
        ^ "}"
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  if !emit_json then print_endline json

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
  | Some (_, descr, f) ->
      Printf.printf "\n[%s] %s\n%!" name descr;
      let t0 = Unix.gettimeofday () in
      let bench = f () in
      let wall_s = Unix.gettimeofday () -. t0 in
      Printf.printf "  (%s took %.1fs)\n%!" name wall_s;
      write_bench_summary name bench wall_s
  | None ->
      Printf.eprintf "unknown experiment %S\n" name;
      exit 2

let usage () =
  print_endline
    "usage: main.exe [--trace FILE] [--json] [e1 .. e20 | all | micro | \
     engine | trace]   (default: all)";
  print_endline "experiments:";
  List.iter
    (fun (n, descr, _) -> Printf.printf "  %-4s %s\n" n descr)
    experiments

(* Peel --trace FILE / --json off the argument list; what remains are
   experiment names (or all/micro/help). *)
let rec parse_flags = function
  | "--trace" :: path :: rest ->
      Exp_util.set_trace (Simnet.Trace.open_file path);
      parse_flags rest
  | [ "--trace" ] ->
      prerr_endline "--trace requires a FILE argument";
      exit 2
  | "--json" :: rest ->
      emit_json := true;
      parse_flags rest
  | rest -> rest

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let args = parse_flags args in
  (match args with
  | [] | [ "all" ] ->
      List.iter (fun (n, _, _) -> run_one n) experiments;
      print_endline "\nAll experiment tables regenerated.";
      print_endline "Run with `micro` for the Bechamel wall-clock benches."
  | [ "micro" ] -> Micro.run ()
  | [ "engine" ] -> Exp_engine.run ()
  | [ "trace" ] -> Exp_trace.run ()
  | [ "help" ] | [ "--help" ] | [ "-h" ] -> usage ()
  | names -> List.iter run_one names);
  Simnet.Trace.close (Exp_util.trace ())

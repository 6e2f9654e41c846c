(* overlay_sim: command-line driver for every scenario in the library.

   The subcommand list below is the single source for both the cmdliner
   group and the unknown-subcommand diagnostic, so the usage text can
   never drift from the commands that actually exist. *)

let subcommand_index =
  [
    ("sample", "run a node sampling primitive (Section 3)");
    ("churn", "drive the churn-resistant expander network (Section 4)");
    ("dos", "drive the DoS-resistant hypercube network (Section 5)");
    ("stabilize", "repair a corrupted topology via detect-and-repair \
                   reconfiguration");
    ("churndos", "drive the combined churn + DoS network (Section 6)");
    ("groupsim", "replay the Section 5 group machinery message-by-message \
                  (Lemmas 14/15)");
    ("anonymize", "issue anonymous requests through the relay overlay \
                   (Section 7.1)");
    ("dht", "run a read/write batch against the robust DHT (Section 7.2)");
    ("workload", "run an open/closed-loop request workload against the DHT \
                  / pub-sub stack under reconfiguration, DoS, churn, and \
                  faults (Section 7)");
    ("chord", "run the Chord backend: ring maintenance + probe lookups \
               under churn, faults, and the stale-view adversary");
    ("social", "run the Reddit-style social application: five traffic \
                classes with per-class SLOs over the pub-sub / DHT stack, \
                with repost fan-out and online/offline sessions");
    ("sweep", "run a declarative experiment grid (checkpointed, resumable, \
               domain-parallel)");
  ]

let subcommand_doc name = List.assoc name subcommand_index

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg default =
  let doc = "Number of nodes." in
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let rng_of_seed seed = Prng.Stream.of_seed (Int64.of_int seed)

(* --verbose turns on the Logs debug tracing the networks emit at epoch and
   window boundaries. *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_term =
  Term.(
    const setup_logs
    $ Arg.(value & flag & info [ "verbose" ] ~doc:"Enable debug tracing."))

let json_term =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Also print a one-line machine-readable JSON summary.")

(* The run-shape flags shared by the driver subcommands — -n, --seed,
   --faults SPEC, --retry R, --trace FILE — funnel through a single
   Simnet.Scenario.of_args call, so their parsing, validation, and error
   wording live in one place instead of being duplicated per subcommand.
   All default off, leaving the paper's fault-free behaviour — and the
   golden CLI outputs — untouched. *)
let scenario_term ?(with_faults = true) ?(with_retry = true) ~default_n () =
  let trace_arg =
    let doc =
      "Write structured trace events to $(docv) as JSONL (CSV if the name \
       ends in .csv, compact binary if it ends in .bin).  See \
       docs/observability.md for the schema."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_format_arg =
    let doc =
      "Trace sink format: $(b,jsonl), $(b,csv) or $(b,bin) (default: by \
       the --trace path suffix).  Binary traces decode back to the exact \
       JSONL bytes via trace_check --export-jsonl."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let faults_arg =
    let doc =
      "Inject deterministic faults, e.g. \
       $(b,drop=0.05,dup=0.01,delay=2,crash=3).  Comma-separated KEY=VALUE \
       pairs; keys: drop, dup, delayp, delay, reorder, crash, crashround, \
       recover, seed.  Same seed and spec reproduce the run byte for byte.  \
       See docs/fault_model.md."
    in
    if with_faults then
      Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
    else Term.const None
  in
  let retry_arg =
    let doc =
      "Give the protocol drivers a recovery budget of $(docv) retries with \
       escalating provisioning (0, the default, reproduces the paper's \
       fault-free drivers)."
    in
    if with_retry then
      Arg.(value & opt int 0 & info [ "retry" ] ~docv:"R" ~doc)
    else Term.const 0
  in
  let domains_arg =
    let doc =
      "Worker domains for intra-round engine parallelism (0 = runtime \
       default, honoring $(b,OVERLAY_DOMAINS)).  Results are \
       byte-identical for every value."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  Term.(
    const (fun n seed faults retry domains trace trace_format ->
        let add key v kvs =
          match v with Some v -> (key, v) :: kvs | None -> kvs
        in
        let kvs =
          [
            ("n", string_of_int n);
            ("seed", string_of_int seed);
            ("retry", string_of_int retry);
            ("domains", string_of_int domains);
          ]
          |> add "faults" faults |> add "trace" trace
          |> add "trace-format" trace_format
        in
        match Simnet.Scenario.of_args kvs with
        | Ok sc -> sc
        | Error e ->
            Printf.eprintf "%s\n" e;
            Stdlib.exit 2)
    $ n_arg default_n $ seed_arg $ faults_arg $ retry_arg $ domains_arg
    $ trace_arg $ trace_format_arg)

(* A fault-plan field the driver cannot honor raises Invalid_argument
   (see docs/fault_model.md); surface it as a clean CLI error instead of
   an uncaught exception. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    Stdlib.exit 2

(* A count knob that must be positive, rejected with a typed exit-2
   diagnostic worded like Simnet.Scenario's own key errors. *)
let require_positive knobs =
  List.iter
    (fun (key, v) ->
      if v <= 0 then begin
        Printf.eprintf "scenario: %s must be > 0, got %d\n" key v;
        Stdlib.exit 2
      end)
    knobs

(* Scenario.retry is a plain budget; the Section 3/4 drivers want it as a
   Retry.policy with escalating provisioning. *)
let retry_policy (sc : Simnet.Scenario.t) =
  if sc.Simnet.Scenario.retry = 0 then Core.Retry.fixed
  else Core.Retry.make ~max_retries:sc.Simnet.Scenario.retry ()

(* Scenario.domains = 0 means "runtime default"; drivers take an option. *)
let domains_opt (sc : Simnet.Scenario.t) =
  if sc.Simnet.Scenario.domains <= 0 then None
  else Some sc.Simnet.Scenario.domains

(* ---------- sample ---------- *)

let sample_cmd =
  let topology_arg =
    let doc = "Topology: hgraph or hypercube." in
    Arg.(value & opt string "hgraph" & info [ "topology" ] ~docv:"T" ~doc)
  in
  let plain_arg =
    let doc = "Use the plain random-walk baseline instead of rapid sampling." in
    Arg.(value & flag & info [ "plain" ] ~doc)
  in
  let c_arg =
    let doc = "Schedule constant c (samples per node = c log2 n)." in
    Arg.(value & opt float 2.0 & info [ "c" ] ~docv:"C" ~doc)
  in
  let eps_arg =
    let doc = "Schedule slack eps in (0, 1]." in
    Arg.(value & opt float 0.5 & info [ "eps" ] ~docv:"EPS" ~doc)
  in
  let run sc topology plain c eps json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let retry = retry_policy sc in
    let rng = Simnet.Scenario.rng sc in
    let result =
      match topology with
      | "hgraph" ->
          let g = Topology.Hgraph.random (Prng.Stream.split rng) ~n ~d:8 in
          if plain then
            Core.Rapid_hgraph.run_plain ~trace ~k:4
              ~rng:(Prng.Stream.split rng) g
          else
            Core.Rapid_hgraph.run ~eps ~c ~trace ~retry
              ~rng:(Prng.Stream.split rng) g
      | "hypercube" ->
          let d = Core.Params.log2i_ceil n in
          let cube = Topology.Hypercube.create d in
          if plain then
            Core.Rapid_hypercube.run_plain ~trace ~k:4
              ~rng:(Prng.Stream.split rng) cube
          else
            Core.Rapid_hypercube.run ~eps ~c ~trace ~retry
              ~rng:(Prng.Stream.split rng) cube
      | other ->
          Printf.eprintf "unknown topology %S (hgraph|hypercube)\n" other;
          exit 2
    in
    Simnet.Trace.close trace;
    let actual_n =
      if topology = "hypercube" then 1 lsl Core.Params.log2i_ceil n else n
    in
    Printf.printf "topology:        %s over %d nodes\n" topology actual_n;
    Printf.printf "mode:            %s\n"
      (if plain then "plain random walks" else "rapid (pointer doubling)");
    Printf.printf "rounds:          %d\n" result.Core.Sampling_result.rounds;
    Printf.printf "walk length:     %d\n" result.Core.Sampling_result.walk_length;
    Printf.printf "samples/node:    %d\n"
      (Core.Sampling_result.samples_per_node result);
    Printf.printf "underflows:      %d\n" result.Core.Sampling_result.underflows;
    if Core.Retry.enabled retry then
      Printf.printf "retries:         %d (%d escalated)\n"
        result.Core.Sampling_result.retries
        result.Core.Sampling_result.escalations;
    Printf.printf "max work/round:  %d bits\n"
      result.Core.Sampling_result.max_round_node_bits;
    let counts = Array.make actual_n 0 in
    Array.iter
      (Array.iter (fun v -> counts.(v) <- counts.(v) + 1))
      result.Core.Sampling_result.samples;
    Printf.printf "uniformity:      chi2 p = %.3f, TV = %.4f (floor %.4f)\n"
      (Stats.Chi_square.test_uniform counts)
      (Stats.Distance.tv_counts_uniform counts)
      (Stats.Distance.expected_tv_noise_floor
         ~samples:(Array.fold_left ( + ) 0 counts)
         ~cells:actual_n);
    if json then begin
      Printf.printf
        {|{"cmd":"sample","topology":"%s","n":%d,"plain":%b,"rounds":%d,"walk_length":%d,"samples_per_node":%d,"underflows":%d,"retries":%d,"escalations":%d,"max_round_node_bits":%d}|}
        topology actual_n plain result.Core.Sampling_result.rounds
        result.Core.Sampling_result.walk_length
        (Core.Sampling_result.samples_per_node result)
        result.Core.Sampling_result.underflows
        result.Core.Sampling_result.retries
        result.Core.Sampling_result.escalations
        result.Core.Sampling_result.max_round_node_bits;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "sample" ~doc:(subcommand_doc "sample"))
    Term.(
      const run
      $ scenario_term ~with_faults:false ~default_n:1024 ()
      $ topology_arg $ plain_arg $ c_arg $ eps_arg $ json_term $ verbose_term)

(* ---------- churn ---------- *)

let strategy_conv =
  let parse s =
    match
      List.find_opt
        (fun st -> Core.Churn_adversary.to_string st = s)
        Core.Churn_adversary.all
    with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown churn strategy %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Core.Churn_adversary.to_string s))

let churn_cmd =
  let epochs_arg =
    Arg.(value & opt int 10 & info [ "epochs" ] ~docv:"E" ~doc:"Epochs to run.")
  in
  let leave_arg =
    Arg.(
      value & opt float 0.3
      & info [ "leave-frac" ] ~docv:"F" ~doc:"Fraction leaving per epoch.")
  in
  let join_arg =
    Arg.(
      value & opt float 0.3
      & info [ "join-frac" ] ~docv:"F" ~doc:"Fraction joining per epoch.")
  in
  let strat_arg =
    Arg.(
      value
      & opt strategy_conv Core.Churn_adversary.Random_churn
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Adversary: random, segment, or heavy-introducer.")
  in
  let run sc epochs leave_frac join_frac strategy json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let rng = Simnet.Scenario.rng sc in
    let net =
      or_usage_error (fun () ->
          Core.Churn_network.create ~trace ?faults:sc.Simnet.Scenario.faults
            ~retry:(retry_policy sc) ?domains:(domains_opt sc)
            ~rng:(Prng.Stream.split rng) ~n ())
    in
    Printf.printf "%-6s %-8s %-8s %-7s %-7s %-10s %-6s %s\n" "epoch" "before"
      "after" "left" "joined" "rounds" "valid" "connected";
    let ok = ref 0 and total_rounds = ref 0 in
    let tot_retries = ref 0
    and tot_reply_retries = ref 0
    and tot_stale = ref 0
    and min_reach = ref 1.0 in
    for e = 1 to epochs do
      let plan =
        Core.Churn_adversary.plan ~trace strategy ~rng:(Prng.Stream.split rng)
          ~graph:(Core.Churn_network.graph net) ~leave_frac ~join_frac
      in
      let r =
        Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
          ~join_introducers:plan.Core.Churn_adversary.join_introducers
      in
      if r.Core.Churn_network.valid && r.Core.Churn_network.connected then
        incr ok;
      total_rounds := !total_rounds + r.Core.Churn_network.rounds;
      tot_retries := !tot_retries + r.Core.Churn_network.sampling_retries;
      tot_reply_retries := !tot_reply_retries + r.Core.Churn_network.reply_retries;
      tot_stale := !tot_stale + r.Core.Churn_network.stale_pointers;
      min_reach := Float.min !min_reach r.Core.Churn_network.reachable_fraction;
      Printf.printf "%-6d %-8d %-8d %-7d %-7d %-10d %-6b %b\n" e
        r.Core.Churn_network.n_before r.Core.Churn_network.n_after
        r.Core.Churn_network.left r.Core.Churn_network.joined
        r.Core.Churn_network.rounds r.Core.Churn_network.valid
        r.Core.Churn_network.connected
    done;
    if Simnet.Scenario.fault_model_active sc then
      Printf.printf
        "faults: sampling retries=%d reply retries=%d stale pointers=%d min \
         reachable=%.3f\n"
        !tot_retries !tot_reply_retries !tot_stale !min_reach;
    Simnet.Trace.close trace;
    if json then begin
      Printf.printf
        {|{"cmd":"churn","epochs":%d,"epochs_ok":%d,"rounds":%d,"final_n":%d,"sampling_retries":%d,"reply_retries":%d,"stale_pointers":%d,"min_reachable_fraction":%.4f}|}
        epochs !ok !total_rounds
        (Core.Churn_network.size net)
        !tot_retries !tot_reply_retries !tot_stale !min_reach;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "churn" ~doc:(subcommand_doc "churn"))
    Term.(
      const run
      $ scenario_term ~default_n:1024 ()
      $ epochs_arg $ leave_arg $ join_arg $ strat_arg $ json_term
      $ verbose_term)

(* ---------- dos ---------- *)

let dos_strategy_conv =
  let parse s =
    match
      List.find_opt
        (fun st -> Core.Dos_adversary.to_string st = s)
        Core.Dos_adversary.all
    with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown DoS strategy %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Core.Dos_adversary.to_string s))

let frac_arg =
  Arg.(
    value & opt float 0.25
    & info [ "frac" ] ~docv:"F" ~doc:"Fraction of nodes blocked per round.")

let lateness_arg =
  Arg.(
    value & opt int (-1)
    & info [ "lateness" ] ~docv:"L"
        ~doc:
          "Adversary lateness in rounds (default: one reconfiguration \
           period).")

let staleness_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "staleness" ] ~docv:"DIST"
        ~doc:
          "Draw the adversary's lateness per round instead of fixing it: \
           $(b,3) (fixed), $(b,0.25) (expected lateness, floor plus \
           Bernoulli on the fraction) or $(b,1..4) (uniform).  Overrides \
           --lateness.")

let parse_staleness = function
  | None -> None
  | Some s -> (
      match Simnet.Snapshots.staleness_of_string s with
      | Ok d -> Some d
      | Error e ->
          Printf.eprintf "%s\n" e;
          Stdlib.exit 2)

let dos_cmd =
  let windows_arg =
    Arg.(
      value & opt int 6 & info [ "windows" ] ~docv:"W" ~doc:"Windows to run.")
  in
  let strat_arg =
    Arg.(
      value
      & opt dos_strategy_conv Core.Dos_adversary.Group_kill
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Adversary: random, group-kill, or isolate.")
  in
  let run sc windows frac lateness staleness strategy json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let rng = Simnet.Scenario.rng sc in
    let net =
      or_usage_error (fun () ->
          Core.Dos_network.create ~c:2.0 ~trace
            ?faults:sc.Simnet.Scenario.faults ~retry:(retry_policy sc)
            ?domains:(domains_opt sc) ~rng:(Prng.Stream.split rng) ~n ())
    in
    let p = Core.Dos_network.period net in
    let lateness = if lateness < 0 then p else lateness in
    let staleness = parse_staleness staleness in
    let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
    let adv =
      Core.Dos_adversary.create ~trace ?staleness strategy
        ~rng:(Prng.Stream.split rng) ~lateness ~frac
    in
    Printf.printf
      "n=%d, %d supernodes, period=%d rounds, adversary=%s lateness=%s \
       frac=%.2f\n\n"
      n
      (Core.Dos_network.supernode_count net)
      p
      (Core.Dos_adversary.to_string strategy)
      (match staleness with
      | None -> string_of_int lateness
      | Some d -> Simnet.Snapshots.staleness_to_string d)
      frac;
    Printf.printf "%-7s %-15s %-13s %s\n" "window" "starved rounds"
      "disconnected" "reconfigured";
    let tot_starved = ref 0 and tot_disc = ref 0 and reconf_ok = ref 0 in
    let tot_fallbacks = ref 0
    and tot_retries = ref 0
    and last_boost = ref 1.0 in
    for w = 1 to windows do
      let starved = ref 0 and disconnected = ref 0 in
      for _ = 1 to p do
        Core.Dos_adversary.observe adv ~group_of:(Core.Dos_network.group_of net);
        let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
        let r = Core.Dos_network.run_round net ~blocked in
        if r.Core.Dos_network.starved_groups > 0 then incr starved;
        if not r.Core.Dos_network.connected then incr disconnected
      done;
      let reconf =
        match Core.Dos_network.last_window net with
        | Some lw ->
            tot_fallbacks := !tot_fallbacks + lw.Core.Dos_network.sampling_fallbacks;
            tot_retries := !tot_retries + lw.Core.Dos_network.sampling_retries;
            last_boost := lw.Core.Dos_network.c_multiplier;
            lw.Core.Dos_network.reconfigured
        | None -> false
      in
      tot_starved := !tot_starved + !starved;
      tot_disc := !tot_disc + !disconnected;
      if reconf then incr reconf_ok;
      Printf.printf "%-7d %-15s %-13s %b\n" w
        (Printf.sprintf "%d/%d" !starved p)
        (Printf.sprintf "%d/%d" !disconnected p)
        reconf
    done;
    if Simnet.Scenario.fault_model_active sc then
      Printf.printf
        "faults: sampling retries=%d fallback draws=%d c multiplier=%.2f\n"
        !tot_retries !tot_fallbacks !last_boost;
    Simnet.Trace.close trace;
    if json then begin
      Printf.printf
        {|{"cmd":"dos","windows":%d,"rounds":%d,"starved_rounds":%d,"disconnected_rounds":%d,"reconfigured_windows":%d,"sampling_retries":%d,"sampling_fallbacks":%d,"c_multiplier":%.4f}|}
        windows (windows * p) !tot_starved !tot_disc !reconf_ok !tot_retries
        !tot_fallbacks !last_boost;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "dos" ~doc:(subcommand_doc "dos"))
    Term.(
      const run
      $ scenario_term ~default_n:4096 ()
      $ windows_arg $ frac_arg $ lateness_arg $ staleness_arg $ strat_arg
      $ json_term $ verbose_term)

(* ---------- stabilize ---------- *)

let stabilize_cmd =
  let corruption_arg =
    Arg.(
      value
      & opt string "class=split"
      & info [ "corruption" ] ~docv:"SPEC"
          ~doc:
            "Corrupted initial topology, e.g. \
             $(b,class=branch,severity=0.3,seed=7).  Comma-separated \
             KEY=VALUE pairs; classes: branch, split, range, crosslink, \
             partition, stale.  See docs/fault_model.md.")
  in
  let mode_arg =
    Arg.(
      value & opt string "repair"
      & info [ "mode" ] ~docv:"M"
          ~doc:
            "$(b,repair) runs detect-and-repair epochs; $(b,static) only \
             detects (the baseline that never converges).")
  in
  let epochs_arg =
    Arg.(
      value & opt int 16
      & info [ "epochs" ] ~docv:"E" ~doc:"Detect-and-repair epoch budget.")
  in
  let run sc corruption mode epochs json () =
    let sc =
      match Simnet.Scenario.of_args ~base:sc [ ("corruption", corruption) ] with
      | Ok sc -> sc
      | Error e ->
          Printf.eprintf "%s\n" e;
          Stdlib.exit 2
    in
    let corruption = Option.get sc.Simnet.Scenario.corruption in
    let mode =
      match Core.Stabilize.mode_of_string mode with
      | Ok m -> m
      | Error e ->
          Printf.eprintf "%s\n" e;
          Stdlib.exit 2
    in
    let trace = Simnet.Scenario.trace_sink sc in
    let r =
      or_usage_error (fun () ->
          Core.Stabilize.run ~trace ~mode ~max_epochs:epochs
            ~retry:(retry_policy sc) ?faults:sc.Simnet.Scenario.faults
            ?domains:(domains_opt sc) ~corruption
            ~rng:(Simnet.Scenario.rng sc)
            ~n:sc.Simnet.Scenario.n ~d:sc.Simnet.Scenario.d ())
    in
    Simnet.Trace.close trace;
    Printf.printf "stabilize: n=%d d=%d corruption=%s mode=%s\n\n"
      sc.Simnet.Scenario.n sc.Simnet.Scenario.d
      (Simnet.Corruption.to_spec corruption)
      (Core.Stabilize.mode_to_string mode);
    let row k v = Printf.printf "%-18s %s\n" k v in
    row "converged" (string_of_bool r.Core.Stabilize.converged);
    row "epochs" (string_of_int r.Core.Stabilize.epochs);
    row "rounds" (string_of_int r.Core.Stabilize.rounds);
    row "bits" (string_of_int r.Core.Stabilize.bits);
    row "initial violations" (string_of_int r.Core.Stabilize.initial_violations);
    row "residual" (string_of_int (List.length r.Core.Stabilize.residual));
    row "patches" (string_of_int r.Core.Stabilize.patches);
    row "splices" (string_of_int r.Core.Stabilize.splices);
    row "reconfigs" (string_of_int r.Core.Stabilize.reconfigs);
    row "retries" (string_of_int r.Core.Stabilize.retries);
    (* cap the residual listing: the count is in the row above, the first
       few examples are what a human needs *)
    List.iteri
      (fun i v ->
        if i < 6 then row "  violation" (Simnet.Invariants.describe v))
      r.Core.Stabilize.residual;
    (let extra = List.length r.Core.Stabilize.residual - 6 in
     if extra > 0 then row "  violation" (Printf.sprintf "... and %d more" extra));
    if json then begin
      Printf.printf
        {|{"cmd":"stabilize","class":"%s","severity":%s,"mode":"%s","converged":%b,"epochs":%d,"rounds":%d,"bits":%d,"initial_violations":%d,"residual":%d,"patches":%d,"splices":%d,"reconfigs":%d,"retries":%d}|}
        (Simnet.Corruption.class_to_string corruption.Simnet.Corruption.cls)
        (Stats.Float_text.json_repr corruption.Simnet.Corruption.severity)
        (Core.Stabilize.mode_to_string mode)
        r.Core.Stabilize.converged r.Core.Stabilize.epochs
        r.Core.Stabilize.rounds r.Core.Stabilize.bits
        r.Core.Stabilize.initial_violations
        (List.length r.Core.Stabilize.residual)
        r.Core.Stabilize.patches r.Core.Stabilize.splices
        r.Core.Stabilize.reconfigs r.Core.Stabilize.retries;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "stabilize" ~doc:(subcommand_doc "stabilize"))
    Term.(
      const run
      $ scenario_term ~default_n:64 ()
      $ corruption_arg $ mode_arg $ epochs_arg $ json_term $ verbose_term)

(* ---------- churndos ---------- *)

let churndos_cmd =
  let windows_arg =
    Arg.(
      value & opt int 10 & info [ "windows" ] ~docv:"W" ~doc:"Windows to run.")
  in
  let gamma_arg =
    Arg.(
      value & opt float 1.5
      & info [ "gamma" ] ~docv:"G"
          ~doc:"Per-window churn factor (grow then shrink alternately).")
  in
  let run sc windows gamma frac lateness () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let rng = Simnet.Scenario.rng sc in
    let net =
      or_usage_error (fun () ->
          Core.Churndos_network.create ~trace
            ?faults:sc.Simnet.Scenario.faults ?domains:(domains_opt sc)
            ~rng:(Prng.Stream.split rng) ~n ())
    in
    let lateness =
      if lateness < 0 then 2 * Core.Churndos_network.period net else lateness
    in
    let cube = Topology.Hypercube.create 12 in
    let adv =
      Core.Dos_adversary.create Core.Dos_adversary.Group_kill
        ~rng:(Prng.Stream.split rng) ~lateness ~frac
    in
    let blocked_for_round ~round:_ ~group_of ~n =
      Core.Dos_adversary.observe adv ~group_of;
      Core.Dos_adversary.blocked_set adv ~cube ~n
    in
    Printf.printf "%-7s %-8s %-8s %-9s %-7s %-11s %-8s %s\n" "window" "before"
      "after" "starved" "spread" "supernodes" "dims" "reconfigured";
    for w = 1 to windows do
      let cur = Core.Churndos_network.n net in
      let joins, leave_frac =
        if w mod 2 = 1 then
          (int_of_float ((gamma -. 1.0) *. float_of_int cur), 0.0)
        else (0, 1.0 -. (1.0 /. gamma))
      in
      let r =
        Core.Churndos_network.run_window net ~blocked_for_round ~joins
          ~leave_frac
      in
      Printf.printf "%-7d %-8d %-8d %-9d %-7d %-11d [%d..%d] %b\n" w
        r.Core.Churndos_network.n_before r.Core.Churndos_network.n_after
        r.Core.Churndos_network.starved_rounds
        r.Core.Churndos_network.dim_spread r.Core.Churndos_network.supernodes
        r.Core.Churndos_network.min_dim r.Core.Churndos_network.max_dim
        r.Core.Churndos_network.reconfigured
    done;
    Simnet.Trace.close trace
  in
  Cmd.v
    (Cmd.info "churndos" ~doc:(subcommand_doc "churndos"))
    Term.(
      const run
      $ scenario_term ~with_retry:false ~default_n:4096 ()
      $ windows_arg $ gamma_arg $ frac_arg $ lateness_arg $ verbose_term)

(* ---------- groupsim ---------- *)

let groupsim_cmd =
  let run sc frac kill_group json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let retry = retry_policy sc in
    let faults = sc.Simnet.Scenario.faults in
    let rng = Simnet.Scenario.rng sc in
    let d = Core.Params.dos_dimension ~c:2.0 ~n in
    let cube = Topology.Hypercube.create d in
    let supernodes = Topology.Hypercube.node_count cube in
    let group_of =
      Array.init n (fun _ -> Prng.Stream.int rng supernodes)
    in
    let proto =
      Core.Supernode_sampling.protocol ~c:2.0 ~trace
        ~fallback:(Core.Retry.enabled retry) ~cube ()
    in
    let gs =
      Core.Group_sim.create ~trace ?faults ?domains:(domains_opt sc)
        ~rng:(Prng.Stream.split rng) ~n ~group_of proto
    in
    let arng = Prng.Stream.split rng in
    Printf.printf
      "message-level group simulation: %d nodes, %d supernodes, %d network \
       rounds\n"
      n supernodes
      (Core.Group_sim.network_rounds_total gs);
    Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round ->
        let b = Array.make n false in
        if frac > 0.0 then
          Array.iter
            (fun v -> b.(v) <- true)
            (Prng.Stream.sample_distinct arng n
               ~k:(int_of_float (frac *. float_of_int n)));
        if kill_group >= 0 && round < 3 then
          Array.iteri (fun v g -> if g = kill_group then b.(v) <- true) group_of;
        b);
    let lost = Core.Group_sim.lost_groups gs in
    Printf.printf "lost groups:   [%s]\n"
      (String.concat "; " (List.map string_of_int lost));
    let counts = Array.make supernodes 0 in
    for x = 0 to supernodes - 1 do
      match Core.Group_sim.state_of gs x with
      | None -> ()
      | Some st ->
          Array.iter
            (fun v -> counts.(v) <- counts.(v) + 1)
            (Core.Supernode_sampling.samples st)
    done;
    if List.length lost < supernodes then
      Printf.printf "sample chi2 p: %.3f\n" (Stats.Chi_square.test_uniform counts);
    let m = Core.Group_sim.metrics gs in
    Printf.printf "messages:      %d\nmax work:      %d bits/node/round\n"
      (Simnet.Metrics.total_msgs m)
      (Simnet.Metrics.max_node_bits_ever m);
    if Simnet.Scenario.fault_model_active sc then begin
      let underflows = ref 0 and fallbacks = ref 0 in
      for x = 0 to supernodes - 1 do
        match Core.Group_sim.state_of gs x with
        | None -> ()
        | Some st ->
            underflows := !underflows + Core.Supernode_sampling.underflows st;
            fallbacks := !fallbacks + Core.Supernode_sampling.fallbacks st
      done;
      Printf.printf "faults:        underflows=%d fallback draws=%d\n"
        !underflows !fallbacks
    end;
    Simnet.Trace.close trace;
    if json then begin
      Printf.printf
        {|{"cmd":"groupsim","n":%d,"supernodes":%d,"net_rounds":%d,"lost_groups":%d,"messages":%d,"max_node_bits":%d}|}
        n supernodes
        (Core.Group_sim.network_rounds_total gs)
        (List.length lost)
        (Simnet.Metrics.total_msgs m)
        (Simnet.Metrics.max_node_bits_ever m);
      print_newline ()
    end
  in
  let kill_arg =
    Arg.(
      value & opt int (-1)
      & info [ "kill-group" ] ~docv:"G"
          ~doc:"Block every member of group G for the first simulation step.")
  in
  Cmd.v
    (Cmd.info "groupsim" ~doc:(subcommand_doc "groupsim"))
    Term.(
      const run
      $ scenario_term ~default_n:2048 ()
      $ frac_arg $ kill_arg $ json_term $ verbose_term)

(* ---------- anonymize ---------- *)

let anonymize_cmd =
  let requests_arg =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"R" ~doc:"Requests to issue.")
  in
  let run n requests frac seed () =
    let rng = rng_of_seed seed in
    let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split rng) ~n () in
    let anon = Apps.Anonymizer.create ~net ~rng:(Prng.Stream.split rng) in
    let blocked = Array.make n false in
    if frac > 0.0 then
      Array.iter
        (fun v -> blocked.(v) <- true)
        (Prng.Stream.sample_distinct (Prng.Stream.split rng) n
           ~k:(int_of_float (frac *. float_of_int n)));
    let delivered = ref 0 in
    let exits = Array.make (Core.Dos_network.supernode_count net) 0 in
    for _ = 1 to requests do
      let r = Apps.Anonymizer.request anon ~blocked in
      if r.Apps.Anonymizer.delivered then begin
        incr delivered;
        match r.Apps.Anonymizer.exit_group with
        | Some g -> exits.(g) <- exits.(g) + 1
        | None -> ()
      end
    done;
    Printf.printf "delivered:      %d/%d\n" !delivered requests;
    Printf.printf "exit entropy:   %.4f of maximum\n"
      (Stats.Entropy.normalized_of_counts exits);
    Printf.printf "rounds/request: 4\n"
  in
  Cmd.v
    (Cmd.info "anonymize" ~doc:(subcommand_doc "anonymize"))
    Term.(const run $ n_arg 4096 $ requests_arg $ frac_arg $ seed_arg $ verbose_term)

(* ---------- dht ---------- *)

let dht_cmd =
  let ops_arg =
    Arg.(
      value & opt int 1000
      & info [ "ops" ] ~docv:"OPS" ~doc:"Write+read pairs to execute.")
  in
  let k_arg =
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Hypercube arity.")
  in
  let run n ops k frac seed () =
    let rng = rng_of_seed seed in
    let dht = Apps.Robust_dht.create ~k ~rng:(Prng.Stream.split rng) ~n () in
    let blocked = Array.make n false in
    if frac > 0.0 then
      Array.iter
        (fun v -> blocked.(v) <- true)
        (Prng.Stream.sample_distinct (Prng.Stream.split rng) n
           ~k:(int_of_float (frac *. float_of_int n)));
    let op_list =
      List.concat_map
        (fun i ->
          [ Apps.Robust_dht.Write (i, string_of_int i); Apps.Robust_dht.Read i ])
        (List.init ops (fun i -> i))
    in
    let b = Apps.Robust_dht.execute_batch dht ~blocked op_list in
    Printf.printf "supernodes:     %d (k=%d, d=%d)\n"
      (Apps.Robust_dht.supernode_count dht)
      k
      (Apps.Robust_dht.dimension dht);
    Printf.printf "served:         %d\n" b.Apps.Robust_dht.served;
    Printf.printf "failed:         %d\n" b.Apps.Robust_dht.failed;
    Printf.printf "max hops:       %d\n" b.Apps.Robust_dht.max_hops;
    Printf.printf "max group load: %d\n" b.Apps.Robust_dht.max_group_load
  in
  Cmd.v
    (Cmd.info "dht" ~doc:(subcommand_doc "dht"))
    Term.(const run $ n_arg 2048 $ ops_arg $ k_arg $ frac_arg $ seed_arg $ verbose_term)

(* ---------- workload ---------- *)

(* ---------- request-plane overlay flags (workload, social) ---------- *)

(* --attack, --frac, --static, --period, --backend and --chord-*: which
   overlay serves the requests and what attacks it, as both request-plane
   subcommands take them *)
type overlay = {
  attack : Workload.Attack.strategy;
  frac : float;
  static : bool;
  period : int;
  backend : string;
  chord : Workload.Driver.chord_params;
}

let overlay_term =
  let attack_conv =
    let parse s =
      match Workload.Attack.parse_strategy s with
      | Ok a -> Ok a
      | Error e -> Error (`Msg e)
    in
    Arg.conv
      ( parse,
        fun fmt a ->
          Format.pp_print_string fmt (Workload.Attack.strategy_to_string a) )
  in
  let attack_arg =
    Arg.(
      value
      & opt attack_conv Workload.Attack.No_attack
      & info [ "attack" ] ~docv:"S"
          ~doc:"Adversary: none, random, or group-kill.")
  in
  let wfrac_arg =
    Arg.(
      value & opt float 0.1
      & info [ "frac" ] ~docv:"F"
          ~doc:"Fraction of servers the adversary blocks per round.")
  in
  let static_arg =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Never reconfigure (the static baseline the paper's networks are \
             measured against).")
  in
  let period_arg =
    Arg.(
      value & opt int 8
      & info [ "period" ] ~docv:"P" ~doc:"Reconfiguration period in rounds.")
  in
  let backend_arg =
    Arg.(
      value & opt string "reconfig"
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Overlay backend serving the requests: $(b,reconfig) (the \
             paper's reconfigurable supernode DHT) or $(b,chord) \
             (iterative Chord lookups under the same request plane).")
  in
  let chord_knob_arg name doc =
    Arg.(value & opt int (-1) & info [ name ] ~docv:"K" ~doc)
  in
  let overlay attack frac static period backend fingers succs cperiod =
    let knob v = if v = -1 then None else Some v in
    { attack; frac; static; period; backend;
      chord =
        { Workload.Driver.fingers = knob fingers; succs = knob succs;
          period = knob cperiod } }
  in
  Term.(
    const overlay $ attack_arg $ wfrac_arg $ static_arg $ period_arg
    $ backend_arg
    $ chord_knob_arg "chord-fingers"
        "Chord finger-table length (-1 = the id-space width m)."
    $ chord_knob_arg "chord-succs"
        "Chord successor-list length (-1 = the backend default)."
    $ chord_knob_arg "chord-period"
        "Chord maintenance period in rounds (-1 = the --period value).")

let overlay_mode o =
  if o.static then Workload.Driver.Static else Workload.Driver.Reconfig

let overlay_backend o =
  match o.backend with
  | "reconfig" -> Workload.Driver.Robust
  | "chord" -> Workload.Driver.Chord o.chord
  | other ->
      Printf.eprintf "unknown backend %S (reconfig|chord)\n" other;
      Stdlib.exit 2

(* Only the chord backend prints a line, so the reconfig goldens stay
   byte-identical. *)
let print_backend o =
  if o.backend = "chord" then print_string "backend: chord\n"

(* the report preamble's overlay settings, up to [lateness] *)
let overlay_line o ~n ~lateness =
  Printf.sprintf "n=%d mode=%s period=%d attack=%s frac=%.2f lateness=%d" n
    (if o.static then "static" else "reconfig")
    o.period
    (Workload.Attack.strategy_to_string o.attack)
    o.frac lateness

let workload_cmd =
  let arrivals_conv =
    let parse s =
      match Workload.Spec.parse_arrivals s with
      | Ok a -> Ok a
      | Error e -> Error (`Msg e)
    in
    Arg.conv
      ( parse,
        fun fmt a ->
          Format.pp_print_string fmt (Workload.Spec.arrivals_to_string a) )
  in
  let mix_conv =
    let parse s =
      match Workload.Spec.parse_mix s with
      | Ok m -> Ok m
      | Error e -> Error (`Msg e)
    in
    Arg.conv
      ( parse,
        fun fmt m -> Format.pp_print_string fmt (Workload.Spec.mix_to_string m)
      )
  in
  let rounds_arg =
    Arg.(
      value & opt int 48 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to simulate.")
  in
  let clients_arg =
    Arg.(
      value & opt int 64 & info [ "clients" ] ~docv:"C" ~doc:"Workload clients.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt arrivals_conv (Workload.Spec.Open_loop { rate = 0.25 })
      & info [ "arrivals" ] ~docv:"A"
          ~doc:
            "Arrival discipline: $(b,open:RATE) (Poisson arrivals per client \
             per round) or $(b,closed:THINK) (one outstanding request per \
             client, THINK idle rounds between completions).")
  in
  let mix_arg =
    Arg.(
      value
      & opt mix_conv
          { Workload.Spec.read = 0.7; write = 0.2; publish = 0.1 }
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Request mix as $(b,read=W,write=W,publish=W) (weights are \
             normalized).")
  in
  let keys_arg =
    Arg.(
      value & opt int 256 & info [ "keys" ] ~docv:"K" ~doc:"Distinct keys.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf popularity exponent; 0 selects uniform key popularity.")
  in
  let slo_arg =
    Arg.(
      value & opt int 8
      & info [ "slo" ] ~docv:"L" ~doc:"Latency SLO in rounds.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 16
      & info [ "timeout" ] ~docv:"T"
          ~doc:"Rounds after arrival before a request is abandoned.")
  in
  let churn_arg =
    Arg.(
      value & opt float 0.0
      & info [ "churn" ] ~docv:"F"
          ~doc:"Fraction of servers churned out per epoch (0 = no churn).")
  in
  let churn_epoch_arg =
    Arg.(
      value & opt int 8
      & info [ "churn-epoch" ] ~docv:"E" ~doc:"Churn epoch length in rounds.")
  in
  let run sc rounds clients arrivals mix keys zipf slo timeout ov lateness
      churn churn_epoch json () =
    let n = sc.Simnet.Scenario.n in
    let trace = Simnet.Scenario.trace_sink sc in
    let faults = sc.Simnet.Scenario.faults in
    let wretry = sc.Simnet.Scenario.retry in
    let seed = sc.Simnet.Scenario.seed in
    let popularity =
      if zipf <= 0.0 then Workload.Spec.Uniform else Workload.Spec.Zipf zipf
    in
    require_positive
      [ ("rounds", rounds); ("clients", clients); ("keys", keys); ("slo", slo);
        ("timeout", timeout) ];
    let spec =
      Workload.Spec.make ~clients ~rounds ~keys ~arrivals ~mix ~popularity ~slo
        ~timeout ()
    in
    let backend = overlay_backend ov in
    let cfg =
      Workload.Driver.config ~mode:(overlay_mode ov) ~period:ov.period
        ~backend ~attack:ov.attack ~frac:ov.frac
        ?lateness:(if lateness < 0 then None else Some lateness)
        ?churn:
          (if churn > 0.0 then
             Some { Workload.Driver.frac = churn; epoch = churn_epoch }
           else None)
        ?faults ~retries:wretry
        ?domains:(domains_opt sc)
        spec
    in
    let report =
      or_usage_error (fun () ->
          Workload.Driver.run ~trace ~seed:(Int64.of_int seed) ~n cfg)
    in
    Simnet.Trace.close trace;
    print_backend ov;
    Printf.printf "workload: %s, mix %s, %d keys (%s)\n"
      (Workload.Spec.arrivals_to_string arrivals)
      (Workload.Spec.mix_to_string mix)
      keys
      (match popularity with
      | Workload.Spec.Uniform -> "uniform"
      | Workload.Spec.Zipf s -> Printf.sprintf "zipf %.2f" s);
    Printf.printf "%s churn=%.2f retry=%d\n\n"
      (overlay_line ov ~n ~lateness:cfg.Workload.Driver.lateness)
      churn wretry;
    List.iter print_endline (Workload.Driver.table_lines report);
    Printf.printf "\nhop messages:   %d\n" report.Workload.Driver.hop_msgs;
    Printf.printf "max group load: %d\n" report.Workload.Driver.max_group_load;
    if json then begin
      let t = report.Workload.Driver.total in
      Printf.printf
        {|{"cmd":"workload","n":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p90":%d,"p99":%d,"slo_miss":%d,"timeout":%d,"failed":%d,"max_hops":%d,"hop_msgs":%d,"max_group_load":%d}|}
        n t.Workload.Driver.issued t.Workload.Driver.ok
        (Workload.Driver.goodput t)
        (Workload.Driver.percentile t 0.50)
        (Workload.Driver.percentile t 0.90)
        (Workload.Driver.percentile t 0.99)
        t.Workload.Driver.slo_miss t.Workload.Driver.timed_out
        t.Workload.Driver.failed t.Workload.Driver.max_hops
        report.Workload.Driver.hop_msgs report.Workload.Driver.max_group_load;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "workload" ~doc:(subcommand_doc "workload"))
    Term.(
      const run
      $ scenario_term ~default_n:1024 ()
      $ rounds_arg $ clients_arg $ arrivals_arg $ mix_arg $ keys_arg
      $ zipf_arg $ slo_arg $ timeout_arg $ overlay_term $ lateness_arg
      $ churn_arg $ churn_epoch_arg $ json_term $ verbose_term)

(* ---------- social ---------- *)

let social_cmd =
  let users_arg =
    Arg.(
      value & opt int 64 & info [ "users" ] ~docv:"U" ~doc:"Application users.")
  in
  let topics_arg =
    Arg.(
      value & opt int 16
      & info [ "topics" ] ~docv:"T" ~doc:"Subreddit-like topics.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 48 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to simulate.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.25
      & info [ "rate" ] ~docv:"RATE"
          ~doc:"Mean new requests per online user per round (Poisson).")
  in
  let fanout_arg =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"F"
          ~doc:"Follower-feed publishes triggered per post (the repost \
                fan-out).")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Topic popularity exponent (s > 0).")
  in
  let session_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "session" ] ~docv:"ONLINE:EPOCH"
          ~doc:
            "User session cycle: every EPOCH rounds a fresh 1-ONLINE \
             fraction of users goes offline, and the same fraction of \
             servers churns out (default: everyone always online).")
  in
  let run sc users topics rounds rate fanout zipf session ov lateness staleness
      json () =
    let n = sc.Simnet.Scenario.n in
    let seed = sc.Simnet.Scenario.seed in
    let trace = Simnet.Scenario.trace_sink sc in
    (* the session flag reuses the scenario key's parser (and its error
       wording) so CLI and sweep specs cannot drift *)
    let session =
      match session with
      | None -> None
      | Some s -> (
          match Simnet.Scenario.of_args [ ("session", s) ] with
          | Ok sc' -> sc'.Simnet.Scenario.session
          | Error e ->
              Printf.eprintf "%s\n" e;
              Stdlib.exit 2)
    in
    require_positive [ ("users", users); ("topics", topics); ("rounds", rounds) ];
    let app =
      or_usage_error (fun () ->
          Apps.Social.config ~users ~topics ~rounds ~rate ~fanout ~zipf
            ?session ())
    in
    let backend = overlay_backend ov in
    let cfg =
      or_usage_error (fun () ->
          Workload.Social.config ~mode:(overlay_mode ov) ~period:ov.period
            ~backend ~attack:ov.attack ~frac:ov.frac
            ?lateness:(if lateness < 0 then None else Some lateness)
            ?staleness:(parse_staleness staleness)
            ?faults:sc.Simnet.Scenario.faults
            ?domains:(domains_opt sc)
            app)
    in
    let report =
      or_usage_error (fun () ->
          Workload.Social.run ~trace ~seed:(Int64.of_int seed) ~n cfg)
    in
    Simnet.Trace.close trace;
    print_backend ov;
    Printf.printf
      "social: %d users, %d topics, fanout %d, rate %.2f, zipf %.2f, \
       session %s\n"
      users topics fanout rate zipf
      (match session with
      | None -> "-"
      | Some (online, epoch) -> Printf.sprintf "%g:%d" online epoch);
    Printf.printf "%s\n\n"
      (overlay_line ov ~n
         ~lateness:cfg.Workload.Social.base.Workload.Driver.lateness);
    List.iter print_endline (Workload.Social.table_lines report);
    Printf.printf "\nhop messages:   %d\n" report.Workload.Social.hop_msgs;
    Printf.printf "max group load: %d\n" report.Workload.Social.max_group_load;
    if json then begin
      let cls c =
        Printf.sprintf
          {|"%s":{"issued":%d,"ok":%d,"goodput":%.4f,"p99":%d,"slo_miss":%d}|}
          c.Workload.Driver.cls c.Workload.Driver.issued c.Workload.Driver.ok
          (Workload.Driver.goodput c)
          (Workload.Driver.percentile c 0.99)
          c.Workload.Driver.slo_miss
      in
      Printf.printf {|{"cmd":"social","n":%d,%s,%s}|} n
        (String.concat ","
           (List.map cls report.Workload.Social.classes))
        (cls report.Workload.Social.total);
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "social" ~doc:(subcommand_doc "social"))
    Term.(
      const run
      $ scenario_term ~default_n:1024 ()
      $ users_arg $ topics_arg $ rounds_arg $ rate_arg $ fanout_arg
      $ zipf_arg $ session_arg $ overlay_term $ lateness_arg $ staleness_arg
      $ json_term $ verbose_term)

(* ---------- chord ---------- *)

let chord_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 64 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to simulate.")
  in
  let keys_arg =
    Arg.(
      value & opt int 256 & info [ "keys" ] ~docv:"K" ~doc:"Distinct keys.")
  in
  let lookups_arg =
    Arg.(
      value & opt int 8
      & info [ "lookups" ] ~docv:"L" ~doc:"Probe lookups per round.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf popularity exponent; 0 selects uniform key popularity.")
  in
  let attack_arg =
    Arg.(
      value & opt string "none"
      & info [ "attack" ] ~docv:"S"
          ~doc:
            "Adversary: $(b,none), $(b,random), or $(b,succ-kill) (the \
             stale-view successor-list attack; $(b,group-kill) is accepted \
             as an alias so one spec drives both backends).")
  in
  let cfrac_arg =
    Arg.(
      value & opt float 0.1
      & info [ "frac" ] ~docv:"F"
          ~doc:"Fraction of nodes the adversary blocks per round.")
  in
  let churn_arg =
    Arg.(
      value & opt float 0.0
      & info [ "churn" ] ~docv:"F"
          ~doc:"Fraction of nodes churned out per epoch (0 = no churn).")
  in
  let churn_epoch_arg =
    Arg.(
      value & opt int 8
      & info [ "churn-epoch" ] ~docv:"E" ~doc:"Churn epoch length in rounds.")
  in
  let fingers_arg =
    Arg.(
      value & opt int (-1)
      & info [ "fingers" ] ~docv:"NF"
          ~doc:"Finger-table length (-1 = the id-space width m).")
  in
  let succs_arg =
    Arg.(
      value & opt int (-1)
      & info [ "succs" ] ~docv:"R"
          ~doc:"Successor-list length (-1 = max 2 (log2 n)).")
  in
  let period_arg =
    Arg.(
      value & opt int (-1)
      & info [ "period" ] ~docv:"P"
          ~doc:"Maintenance period in rounds (-1 = 8).")
  in
  let run sc rounds keys lookups zipf attack frac lateness staleness churn
      churn_epoch fingers succs period json () =
    let strategy =
      match Chord.Adversary.parse_strategy attack with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "%s\n" e;
          Stdlib.exit 2
    in
    let cfg =
      or_usage_error (fun () ->
          Chord.Sim.config ~rounds ~fingers ~succs ~period ~keys ~lookups ~zipf
            ~strategy ~frac ~lateness
            ?staleness:(parse_staleness staleness)
            ?churn:(if churn > 0.0 then Some (churn, churn_epoch) else None)
            ?faults:sc.Simnet.Scenario.faults ~retries:sc.Simnet.Scenario.retry
            ~n:sc.Simnet.Scenario.n ())
    in
    let trace = Simnet.Scenario.trace_sink sc in
    let r =
      or_usage_error (fun () ->
          Chord.Sim.run ~trace ?domains:(domains_opt sc)
            ~seed:(Int64.of_int sc.Simnet.Scenario.seed)
            cfg)
    in
    Simnet.Trace.close trace;
    List.iter print_endline (Chord.Sim.summary_lines r);
    if json then begin
      Printf.printf
        {|{"cmd":"chord","n":%d,"m":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p99":%d,"max_hops":%d,"timeouts":%d,"lookup_msgs":%d,"maint_msgs":%d,"total_bits":%d,"succ_ok":%.4f,"connected":%b,"members":%d}|}
        cfg.Chord.Sim.n r.Chord.Sim.m r.Chord.Sim.issued r.Chord.Sim.ok
        (Chord.Sim.goodput r)
        (Chord.Sim.percentile r 0.50)
        (Chord.Sim.percentile r 0.99)
        r.Chord.Sim.max_hops r.Chord.Sim.lookup_timeouts
        r.Chord.Sim.lookup_msgs r.Chord.Sim.maint.Chord.Net.msgs
        r.Chord.Sim.total_bits r.Chord.Sim.succ_ok r.Chord.Sim.connected
        r.Chord.Sim.members;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "chord" ~doc:(subcommand_doc "chord"))
    Term.(
      const run
      $ scenario_term ~default_n:256 ()
      $ rounds_arg $ keys_arg $ lookups_arg $ zipf_arg $ attack_arg
      $ cfrac_arg $ lateness_arg $ staleness_arg $ churn_arg $ churn_epoch_arg
      $ fingers_arg $ succs_arg $ period_arg $ json_term $ verbose_term)

(* ---------- sweep ---------- *)

(* Per-cell runners for `overlay_sim sweep`.  Each runner is a pure
   function of its cell: scenario fields come from the cell scenario,
   free-axis knobs from the cell bindings, randomness from the cell's
   (sweep-name, cell-id)-derived stream — so results are independent of
   sharding, domain count, and which other cells exist. *)

let sweep_float_binding cell key ~default =
  if List.mem_assoc key cell.Sweep.Grid.bindings then
    Sweep.Grid.float_binding cell key
  else default

let sweep_run_sample ~trace (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let rng = Sweep.Grid.cell_rng cell in
  let c = sweep_float_binding cell "c" ~default:2.0 in
  let g =
    Topology.Hgraph.random (Prng.Stream.split rng) ~n:sc.Simnet.Scenario.n
      ~d:sc.Simnet.Scenario.d
  in
  let r =
    Core.Rapid_hgraph.run ~c ~trace ~retry:(retry_policy sc)
      ~rng:(Prng.Stream.split rng) g
  in
  [
    ("rounds", Simnet.Trace.Int r.Core.Sampling_result.rounds);
    ( "samples_per_node",
      Simnet.Trace.Int (Core.Sampling_result.samples_per_node r) );
    ("underflows", Simnet.Trace.Int r.Core.Sampling_result.underflows);
    ( "max_node_bits",
      Simnet.Trace.Int r.Core.Sampling_result.max_round_node_bits );
  ]

let sweep_run_churn ~trace (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let rng = Sweep.Grid.cell_rng cell in
  let epochs =
    if sc.Simnet.Scenario.rounds < 0 then 4 else sc.Simnet.Scenario.rounds
  in
  let leave_frac = sweep_float_binding cell "leave" ~default:0.3 in
  let join_frac = sweep_float_binding cell "join" ~default:0.3 in
  let net =
    Core.Churn_network.create ?faults:sc.Simnet.Scenario.faults ~trace
      ~retry:(retry_policy sc) ?domains:(domains_opt sc)
      ~rng:(Prng.Stream.split rng) ~n:sc.Simnet.Scenario.n ()
  in
  let ok = ref 0 and rounds = ref 0 in
  for _ = 1 to epochs do
    let plan =
      Core.Churn_adversary.plan Core.Churn_adversary.Random_churn
        ~rng:(Prng.Stream.split rng)
        ~graph:(Core.Churn_network.graph net) ~leave_frac ~join_frac
    in
    let r =
      Core.Churn_network.epoch net ~leaves:plan.Core.Churn_adversary.leaves
        ~join_introducers:plan.Core.Churn_adversary.join_introducers
    in
    if r.Core.Churn_network.valid && r.Core.Churn_network.connected then
      incr ok;
    rounds := !rounds + r.Core.Churn_network.rounds
  done;
  [
    ("epochs", Simnet.Trace.Int epochs);
    ("epochs_ok", Simnet.Trace.Int !ok);
    ("rounds", Simnet.Trace.Int !rounds);
    ("final_n", Simnet.Trace.Int (Core.Churn_network.size net));
  ]

let sweep_run_stabilize ~trace (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let rng = Sweep.Grid.cell_rng cell in
  let corruption =
    match sc.Simnet.Scenario.corruption with
    | Some c -> c
    | None -> Simnet.Corruption.make Simnet.Corruption.Split
  in
  let mode =
    if List.mem_assoc "mode" cell.Sweep.Grid.bindings then
      match Core.Stabilize.mode_of_string (Sweep.Grid.binding cell "mode") with
      | Ok m -> m
      | Error e -> invalid_arg e
    else Core.Stabilize.Repair
  in
  let max_epochs =
    if sc.Simnet.Scenario.rounds < 0 then 16 else sc.Simnet.Scenario.rounds
  in
  let r =
    Core.Stabilize.run ~trace ~mode ~max_epochs ~retry:(retry_policy sc)
      ?faults:sc.Simnet.Scenario.faults ?domains:(domains_opt sc) ~corruption
      ~rng:(Prng.Stream.split rng) ~n:sc.Simnet.Scenario.n
      ~d:sc.Simnet.Scenario.d ()
  in
  [
    ("converged", Simnet.Trace.Bool r.Core.Stabilize.converged);
    ("epochs", Simnet.Trace.Int r.Core.Stabilize.epochs);
    ("rounds", Simnet.Trace.Int r.Core.Stabilize.rounds);
    ("bits", Simnet.Trace.Int r.Core.Stabilize.bits);
    ("residual", Simnet.Trace.Int (List.length r.Core.Stabilize.residual));
    ("patches", Simnet.Trace.Int r.Core.Stabilize.patches);
    ("splices", Simnet.Trace.Int r.Core.Stabilize.splices);
  ]

let sweep_run_chord ~trace (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let strategy =
    match sc.Simnet.Scenario.adversary with
    | None -> Chord.Adversary.No_attack
    | Some s -> (
        match Chord.Adversary.parse_strategy s with
        | Ok st -> st
        | Error e -> invalid_arg e)
  in
  let rounds =
    if sc.Simnet.Scenario.rounds < 0 then 32 else sc.Simnet.Scenario.rounds
  in
  let churn = sweep_float_binding cell "churn" ~default:0.0 in
  let churn_epoch =
    if List.mem_assoc "churn-epoch" cell.Sweep.Grid.bindings then
      Sweep.Grid.int_binding cell "churn-epoch"
    else 8
  in
  let cfg =
    Chord.Sim.config ~rounds ?fingers:sc.Simnet.Scenario.chord_fingers
      ?succs:sc.Simnet.Scenario.chord_succs
      ?period:sc.Simnet.Scenario.chord_period ~strategy
      ~frac:sc.Simnet.Scenario.frac ~lateness:sc.Simnet.Scenario.lateness
      ?staleness:sc.Simnet.Scenario.staleness
      ?churn:(if churn > 0.0 then Some (churn, churn_epoch) else None)
      ?faults:sc.Simnet.Scenario.faults ~retries:sc.Simnet.Scenario.retry
      ~n:sc.Simnet.Scenario.n ()
  in
  let r =
    Chord.Sim.run ~trace ?domains:(domains_opt sc) ~seed:cell.Sweep.Grid.seed
      cfg
  in
  [
    ("goodput", Simnet.Trace.Float (Chord.Sim.goodput r));
    ("p50", Simnet.Trace.Int (Chord.Sim.percentile r 0.50));
    ("p99", Simnet.Trace.Int (Chord.Sim.percentile r 0.99));
    ("max_hops", Simnet.Trace.Int r.Chord.Sim.max_hops);
    ("maint_msgs", Simnet.Trace.Int r.Chord.Sim.maint.Chord.Net.msgs);
    ("total_bits", Simnet.Trace.Int r.Chord.Sim.total_bits);
    ("succ_ok", Simnet.Trace.Float r.Chord.Sim.succ_ok);
    ("connected", Simnet.Trace.Bool r.Chord.Sim.connected);
    ("members", Simnet.Trace.Int r.Chord.Sim.members);
  ]

(* The social application through the sweep engine.  The scenario keys
   app/topics/fanout/session drive the application shape; backend= picks
   reconfig, static (the no-reshuffle ablation on the robust DHT) or
   chord.  Free axes: var:users, var:rate, var:period. *)
let sweep_run_social ~trace (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  (match sc.Simnet.Scenario.app with
  | None | Some "social" -> ()
  | Some other ->
      invalid_arg (Printf.sprintf "run=social cannot serve app=%s" other));
  let attack =
    match sc.Simnet.Scenario.adversary with
    | None -> Workload.Attack.No_attack
    | Some s -> (
        match Workload.Attack.parse_strategy s with
        | Ok a -> a
        | Error e -> invalid_arg e)
  in
  let rounds =
    if sc.Simnet.Scenario.rounds < 0 then 48 else sc.Simnet.Scenario.rounds
  in
  let users =
    if List.mem_assoc "users" cell.Sweep.Grid.bindings then
      Sweep.Grid.int_binding cell "users"
    else 64
  in
  let rate = sweep_float_binding cell "rate" ~default:0.25 in
  let period =
    if List.mem_assoc "period" cell.Sweep.Grid.bindings then
      Sweep.Grid.int_binding cell "period"
    else 8
  in
  let app =
    Apps.Social.config ~users ~rounds ~rate
      ?topics:sc.Simnet.Scenario.topics ?fanout:sc.Simnet.Scenario.fanout
      ?session:sc.Simnet.Scenario.session ()
  in
  let mode, backend =
    match sc.Simnet.Scenario.backend with
    | Some "chord" ->
        ( Workload.Driver.Reconfig,
          Workload.Driver.Chord
            {
              Workload.Driver.fingers = sc.Simnet.Scenario.chord_fingers;
              succs = sc.Simnet.Scenario.chord_succs;
              period = sc.Simnet.Scenario.chord_period;
            } )
    | Some "static" -> (Workload.Driver.Static, Workload.Driver.Robust)
    | _ -> (Workload.Driver.Reconfig, Workload.Driver.Robust)
  in
  let cfg =
    Workload.Social.config ~mode ~period ~backend ~attack
      ~frac:sc.Simnet.Scenario.frac
      ?lateness:
        (if sc.Simnet.Scenario.lateness < 0 then None
         else Some sc.Simnet.Scenario.lateness)
      ?staleness:sc.Simnet.Scenario.staleness
      ?faults:sc.Simnet.Scenario.faults
      ?domains:(domains_opt sc) app
  in
  let r =
    Workload.Social.run ~trace ~seed:cell.Sweep.Grid.seed
      ~n:sc.Simnet.Scenario.n cfg
  in
  let per_class c =
    [
      ( c.Workload.Driver.cls ^ "_goodput",
        Simnet.Trace.Float (Workload.Driver.goodput c) );
      ( c.Workload.Driver.cls ^ "_p99",
        Simnet.Trace.Int (Workload.Driver.percentile c 0.99) );
    ]
  in
  List.concat_map per_class r.Workload.Social.classes
  @ [
      ( "goodput",
        Simnet.Trace.Float (Workload.Driver.goodput r.Workload.Social.total) );
      ("slo_miss", Simnet.Trace.Int r.Workload.Social.total.Workload.Driver.slo_miss);
      ("hop_msgs", Simnet.Trace.Int r.Workload.Social.hop_msgs);
      ("total_bits", Simnet.Trace.Int r.Workload.Social.total_bits);
    ]

let sweep_runner = function
  | "sample" -> sweep_run_sample
  | "churn" -> sweep_run_churn
  | "stabilize" -> sweep_run_stabilize
  | "chord" -> sweep_run_chord
  | "social" -> sweep_run_social
  | other ->
      Printf.eprintf
        "unknown sweep runner %S (sample|churn|stabilize|chord|social)\n"
        other;
      exit 2

let sweep_value_string = function
  | Simnet.Trace.Int i -> string_of_int i
  | Simnet.Trace.Bool b -> string_of_bool b
  | Simnet.Trace.String s -> s
  | Simnet.Trace.Float f -> Stats.Float_text.repr f

(* Cell table: one row per cell, one column per payload key, widths fit
   the data.  Cached/fresh status is deliberately not printed — stdout
   must be identical between a fresh run and a resumed one. *)
let sweep_print_table (outcomes : Sweep.Exec.record Sweep.Exec.outcome list) =
  let keys =
    match outcomes with
    | [] -> []
    | o :: _ -> List.map fst o.Sweep.Exec.value
  in
  let rows =
    List.map
      (fun (o : _ Sweep.Exec.outcome) ->
        ( o.Sweep.Exec.cell.Sweep.Grid.id,
          List.map
            (fun k ->
              match List.assoc_opt k o.Sweep.Exec.value with
              | Some v -> sweep_value_string v
              | None -> "-")
            keys ))
      outcomes
  in
  let width header col =
    List.fold_left
      (fun w s -> max w (String.length s))
      (String.length header) col
  in
  let cell_w = width "cell" (List.map fst rows) in
  let col_ws =
    List.mapi (fun i k -> width k (List.map (fun (_, vs) -> List.nth vs i) rows))
      keys
  in
  let pad_left w s = String.make (w - String.length s) ' ' ^ s in
  let pad_right w s = s ^ String.make (w - String.length s) ' ' in
  Printf.printf "%s" (pad_right cell_w "cell");
  List.iter2 (fun k w -> Printf.printf "  %s" (pad_left w k)) keys col_ws;
  print_newline ();
  List.iter
    (fun (id, vs) ->
      Printf.printf "%s" (pad_right cell_w id);
      List.iter2 (fun v w -> Printf.printf "  %s" (pad_left w v)) vs col_ws;
      print_newline ())
    rows

let sweep_cmd =
  let spec_arg =
    let doc =
      "Grid spec string, e.g. \
       $(b,sweep=demo;run=sample;axis:n=64|128;var:c=1.5|2).  Segments \
       separated by ';': $(b,sweep=NAME) names the sweep, $(b,run=R) picks \
       the per-cell runner (sample|churn), $(b,axis:KEY=v1|v2|...) adds a \
       scenario axis, $(b,var:KEY=v1|v2|...) a free axis the runner reads, \
       and any other KEY=VALUE sets the base scenario.  See docs/sweeps.md."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"SPEC" ~doc)
  in
  let file_arg =
    let doc =
      "Read the grid spec from $(docv) (same syntax; newlines also \
       separate segments, '#' starts a comment)."
    in
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Stream one JSONL record per completed cell to $(docv); rerunning \
       with the same file skips recorded cells and resumes to a \
       byte-identical artifact."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains (0 = runtime default, honours OVERLAY_DOMAINS); \
       results and artifacts are identical for every value."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let trace_arg =
    let doc =
      "Write per-cell progress events to $(docv) as JSONL (CSV if the \
       name ends in .csv, compact binary if it ends in .bin)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let cell_traces_arg =
    let doc =
      "Write one compact binary trace per freshly computed cell under \
       directory $(docv) (created if missing); checkpoint records \
       reference each cell's file under the reserved 'trace' key.  \
       Decode with trace_check --export-jsonl."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "cell-traces" ] ~docv:"DIR" ~doc)
  in
  let run spec file checkpoint domains trace_path cell_traces json () =
    let parsed =
      match (spec, file) with
      | Some s, None -> Sweep.Spec.parse s
      | None, Some f -> Sweep.Spec.load f
      | Some _, Some _ -> Error "pass --spec or --file, not both"
      | None, None -> Error "pass --spec STRING or --file FILE"
    in
    let parsed =
      Result.bind parsed (fun sp ->
          Result.map (fun cells -> (sp, cells)) (Sweep.Spec.cells sp))
    in
    match parsed with
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    | Ok (sp, cells) ->
        let runner = sweep_runner sp.Sweep.Spec.run in
        let trace =
          match trace_path with
          | None -> Simnet.Trace.null
          | Some p -> Simnet.Trace.open_file p
        in
        let outcomes =
          or_usage_error (fun () ->
              Sweep.Exec.run
                ?domains:(if domains <= 0 then None else Some domains)
                ?checkpoint ~trace ?cell_traces ~sweep:sp.Sweep.Spec.name
                ~codec:Sweep.Exec.record_codec cells runner)
        in
        Simnet.Trace.close trace;
        Printf.printf "sweep %s: %d cells (run=%s)\n\n" sp.Sweep.Spec.name
          (List.length outcomes) sp.Sweep.Spec.run;
        sweep_print_table outcomes;
        if json then
          List.iter
            (fun (o : _ Sweep.Exec.outcome) ->
              print_endline
                (Simnet.Trace.jsonl_of_pairs
                   (("cell", Simnet.Trace.String o.Sweep.Exec.cell.Sweep.Grid.id)
                   :: o.Sweep.Exec.value)))
            outcomes
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:(subcommand_doc "sweep"))
    Term.(
      const run $ spec_arg $ file_arg $ checkpoint_arg $ domains_arg
      $ trace_arg $ cell_traces_arg $ json_term $ verbose_term)

let () =
  (* An unknown subcommand gets a deterministic exit-2 diagnostic listing
     every subcommand with its one-liner (cmdliner's own error goes to a
     pager-formatted usage block with a different exit code). *)
  (match Array.to_list Sys.argv with
  | _ :: arg :: _
    when String.length arg > 0
         && arg.[0] <> '-'
         && arg <> "help"
         && not (List.mem_assoc arg subcommand_index) ->
      Printf.eprintf "overlay_sim: unknown subcommand %S\n\nSubcommands:\n" arg;
      List.iter
        (fun (name, doc) -> Printf.eprintf "  %-9s  %s\n" name doc)
        subcommand_index;
      Stdlib.exit 2
  | _ -> ());
  let doc =
    "churn- and DoS-resistant overlay networks based on network \
     reconfiguration (SPAA 2016)"
  in
  let info = Cmd.info "overlay_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sample_cmd; churn_cmd; dos_cmd; stabilize_cmd; churndos_cmd;
            groupsim_cmd; anonymize_cmd; dht_cmd; workload_cmd; chord_cmd;
            social_cmd; sweep_cmd;
          ]))

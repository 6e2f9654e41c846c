(* overlay_sim: command-line driver for every scenario in the library.

   Each run kind is one registry entry ({!kind}): its knobs, a run
   function of one sweep cell, the report its subcommand prints and the
   payload row a sweep records.  The [kinds] list generates the cmdliner
   group, the unknown-subcommand index and the sweep runner lookup, so a
   subcommand is a one-cell grid run through the same code as a sweep
   cell, and no list of run kinds can drift from another. *)

open Cmdliner
module Grid = Sweep.Grid
module Scenario = Simnet.Scenario
module Trace = Simnet.Trace

(* ---------- knobs ---------- *)

(* How a knob's value is checked before a run sees it: [Pos] is a count
   that must be positive, [Flag] a boolean CLI flag (["true"] or
   ["false"] in a sweep). *)
type ty = Str | Int | Pos | Float | Flag

type knob = {
  flag : string;  (** CLI option; also a free knob's sweep [var:] name *)
  key : string option;  (** the Scenario key it sets; [None] = free *)
  ty : ty;
  default : string option;
      (** CLI default, and a free knob's sweep default ([None]: the
          driver's own default, or the scenario's) *)
  docv : string;
  doc : string;
}

let knob ?key ?default ?(ty = Str) ?(docv = "V") flag doc =
  { flag; key; ty; default; docv; doc }

(* Typed diagnostics, worded like Simnet.Scenario's own key errors. *)
let check_knob k v =
  let name = Option.value k.key ~default:k.flag in
  let bad what = Error (Printf.sprintf "scenario: %s %s, got %S" name what v) in
  match (k.ty, int_of_string_opt v) with
  | Str, _ -> Ok ()
  | Flag, _ ->
      if v = "true" || v = "false" then Ok () else bad "expects true or false"
  | Float, _ ->
      if float_of_string_opt v = None then bad "expects a number" else Ok ()
  | (Int | Pos), None -> bad "expects an integer"
  | Pos, Some i when i <= 0 ->
      Error (Printf.sprintf "scenario: %s must be > 0, got %d" name i)
  | (Int | Pos), Some _ -> Ok ()

(* Free-knob values of a prepared cell: every one is bound and checked. *)
let str (cell : Grid.cell) name = Grid.binding cell name
let int cell name = int_of_string (str cell name)
let float cell name = float_of_string (str cell name)
let bool cell name = str cell name = "true"

(* Knobs several kinds share. *)
let rounds_knob ~flag ~docv ~default doc =
  knob flag ~key:"rounds" ~default ~ty:Pos ~docv doc

let frac_knob default doc = knob "frac" ~key:"frac" ~default ~docv:"F" doc

let lateness_knob =
  knob "lateness" ~key:"lateness" ~docv:"L"
    "Adversary lateness in rounds (default: one reconfiguration period)."

let staleness_knob =
  knob "staleness" ~key:"staleness" ~docv:"DIST"
    "Draw the adversary's lateness per round instead of fixing it: $(b,3) \
     (fixed), $(b,0.25) (expected lateness, floor plus Bernoulli on the \
     fraction) or $(b,1..4) (uniform).  Overrides --lateness."

let churn_knobs =
  [
    knob "churn" ~default:"0.0" ~ty:Float ~docv:"F"
      "Fraction of servers churned out per epoch (0 = no churn).";
    knob "churn-epoch" ~default:"8" ~ty:Int ~docv:"E"
      "Churn epoch length in rounds.";
  ]

(* ---------- run kinds ---------- *)

type kind =
  | Kind : {
      name : string;
      doc : string;
      default_n : int;
      knobs : knob list;
      cannot : string list;
          (** scenario keys rejected, as the driver cannot honour them:
              ["faults"], ["retry"] and ["trace"] *)
      reads : string list;
          (** scenario keys the run reads that none of its knobs sets *)
      run : trace:Trace.t -> Grid.cell -> 'r;
      print : Grid.cell -> 'r -> unit;  (** the subcommand's report *)
      json : (Grid.cell -> 'r -> string) option;
          (** the --json line; [None] prints the row *)
      row : 'r -> Sweep.Exec.record;  (** the sweep payload *)
    }
      -> kind

let fail msg =
  prerr_endline msg;
  exit 2

let or_fail = function Ok v -> v | Error e -> fail e
let ( let* ) = Result.bind

(* [f] on each of [xs] in turn, up to the first error *)
let all f xs = List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) xs

(* Drivers and knob parsers raise Invalid_argument on input they reject;
   this is the one place that becomes an exit-2 CLI error. *)
let or_usage_error f = try f () with Invalid_argument msg -> fail msg
let usage fmt = Printf.ksprintf invalid_arg fmt
let or_usage = function Ok v -> v | Error e -> invalid_arg e

(* Scenario.retry is a plain budget; the Section 3/4 drivers want it as a
   Retry.policy with escalating provisioning. *)
let retry_policy (sc : Scenario.t) =
  if sc.retry = 0 then Core.Retry.fixed
  else Core.Retry.make ~max_retries:sc.retry ()

(* Scenario.lateness = -1 means "the driver's default". *)
let lateness_opt (sc : Scenario.t) =
  if sc.lateness < 0 then None else Some sc.lateness

(* rounds, epochs or windows: the scenario's, else the kind's default *)
let rounds (sc : Scenario.t) default =
  if sc.rounds < 0 then default else sc.rounds

let find_strategy what strategies to_string s =
  match List.find_opt (fun x -> to_string x = s) strategies with
  | Some x -> x
  | None -> usage "unknown %s strategy %S" what s

(* A uniformly random [frac] of the [n] nodes, blocked. *)
let blocked_fraction rng ~n frac =
  let b = Array.make n false in
  if frac > 0.0 then
    Array.iter
      (fun v -> b.(v) <- true)
      (Prng.Stream.sample_distinct rng n
         ~k:(int_of_float (frac *. float_of_int n)));
  b

(* ---------- sample ---------- *)

let sample =
  let module R = Core.Sampling_result in
  Kind
    {
      name = "sample";
      doc = "run a node sampling primitive (Section 3)";
      default_n = 1024;
      cannot = [ "faults" ];
      reads = [ "d" ];
      knobs =
        [
          knob "topology" ~default:"hgraph" ~docv:"T"
            "Topology: hgraph or hypercube.";
          knob "plain" ~default:"false" ~ty:Flag
            "Use the plain random-walk baseline instead of rapid sampling.";
          knob "c" ~default:"2.0" ~ty:Float ~docv:"C"
            "Schedule constant c (samples per node = c log2 n).";
          knob "eps" ~default:"0.5" ~ty:Float ~docv:"EPS"
            "Schedule slack eps in (0, 1].";
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let rng = Grid.cell_rng cell and retry = retry_policy sc in
          let eps = float cell "eps" and c = float cell "c" in
          let plain = bool cell "plain" in
          match str cell "topology" with
          | "hgraph" ->
              let g =
                Topology.Hgraph.random (Prng.Stream.split rng) ~n:sc.n ~d:sc.d
              in
              let rng = Prng.Stream.split rng in
              ( sc.n,
                if plain then Core.Rapid_hgraph.run_plain ~trace ~k:4 ~rng g
                else Core.Rapid_hgraph.run ~eps ~c ~trace ~retry ~rng g )
          | "hypercube" ->
              let d = Core.Params.log2i_ceil sc.n in
              let cube = Topology.Hypercube.create d in
              let rng = Prng.Stream.split rng in
              let module H = Core.Rapid_hypercube in
              ( 1 lsl d,
                if plain then H.run_plain ~trace ~k:4 ~rng cube
                else H.run ~eps ~c ~trace ~retry ~rng cube )
          | other -> usage "unknown topology %S (hgraph|hypercube)" other);
      print =
        (fun cell (n, r) ->
          Printf.printf "topology:        %s over %d nodes\n"
            (str cell "topology") n;
          Printf.printf "mode:            %s\n"
            (if bool cell "plain" then "plain random walks"
             else "rapid (pointer doubling)");
          Printf.printf "rounds:          %d\n" r.R.rounds;
          Printf.printf "walk length:     %d\n" r.walk_length;
          Printf.printf "samples/node:    %d\n" (R.samples_per_node r);
          Printf.printf "underflows:      %d\n" r.underflows;
          if cell.scenario.retry > 0 then
            Printf.printf "retries:         %d (%d escalated)\n" r.retries
              r.escalations;
          Printf.printf "max work/round:  %d bits\n" r.max_round_node_bits;
          let counts = Array.make n 0 in
          Array.iter
            (Array.iter (fun v -> counts.(v) <- counts.(v) + 1))
            r.samples;
          Printf.printf
            "uniformity:      chi2 p = %.3f, TV = %.4f (floor %.4f)\n"
            (Stats.Chi_square.test_uniform counts)
            (Stats.Distance.tv_counts_uniform counts)
            (Stats.Distance.expected_tv_noise_floor
               ~samples:(Array.fold_left ( + ) 0 counts)
               ~cells:n));
      json =
        Some
          (fun cell (n, r) ->
            Printf.sprintf
              {|{"cmd":"sample","topology":"%s","n":%d,"plain":%b,"rounds":%d,"walk_length":%d,"samples_per_node":%d,"underflows":%d,"retries":%d,"escalations":%d,"max_round_node_bits":%d}|}
              (str cell "topology") n (bool cell "plain") r.R.rounds
              r.walk_length (R.samples_per_node r) r.underflows r.retries
              r.escalations r.max_round_node_bits);
      row =
        (fun (_, r) ->
          [
            ("rounds", Trace.Int r.R.rounds);
            ("samples_per_node", Trace.Int (R.samples_per_node r));
            ("underflows", Trace.Int r.underflows);
            ("max_node_bits", Trace.Int r.max_round_node_bits);
          ]);
    }

(* ---------- churn ---------- *)

let churn =
  let module N = Core.Churn_network in
  (* epochs, epochs ok, rounds, sampling retries, reply retries, stale
     pointers, min reachable fraction *)
  let totals (rs, _) =
    List.fold_left
      (fun (e, ok, rounds, sr, rr, st, reach) (r : N.epoch_report) ->
        ( e + 1,
          (ok + if r.valid && r.connected then 1 else 0),
          rounds + r.rounds,
          sr + r.sampling_retries,
          rr + r.reply_retries,
          st + r.stale_pointers,
          Float.min reach r.reachable_fraction ))
      (0, 0, 0, 0, 0, 0, 1.0) rs
  in
  Kind
    {
      name = "churn";
      doc = "drive the churn-resistant expander network (Section 4)";
      default_n = 1024;
      cannot = [];
      reads = [];
      knobs =
        [
          rounds_knob ~flag:"epochs" ~docv:"E" ~default:"10" "Epochs to run.";
          knob "leave-frac" ~default:"0.3" ~ty:Float ~docv:"F"
            "Fraction leaving per epoch.";
          knob "join-frac" ~default:"0.3" ~ty:Float ~docv:"F"
            "Fraction joining per epoch.";
          knob "strategy" ~default:"random" ~docv:"S"
            "Adversary: random, segment, or heavy-introducer.";
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let rng = Grid.cell_rng cell in
          let strategy =
            find_strategy "churn" Core.Churn_adversary.all
              Core.Churn_adversary.to_string (str cell "strategy")
          in
          let leave_frac = float cell "leave-frac" in
          let join_frac = float cell "join-frac" in
          let net =
            Core.Churn_network.create ~trace ?faults:sc.faults
              ~retry:(retry_policy sc) ~rng:(Prng.Stream.split rng) ~n:sc.n ()
          in
          let epoch _ =
            let plan =
              Core.Churn_adversary.plan ~trace strategy
                ~rng:(Prng.Stream.split rng) ~graph:(N.graph net) ~leave_frac
                ~join_frac
            in
            N.epoch net ~leaves:plan.leaves
              ~join_introducers:plan.join_introducers
          in
          let epochs = List.init (rounds sc 4) epoch in
          (epochs, N.size net));
      print =
        (fun cell ((rs, _) as report) ->
          Printf.printf "%-6s %-8s %-8s %-7s %-7s %-10s %-6s %s\n" "epoch"
            "before" "after" "left" "joined" "rounds" "valid" "connected";
          List.iteri
            (fun e (r : N.epoch_report) ->
              Printf.printf "%-6d %-8d %-8d %-7d %-7d %-10d %-6b %b\n" (e + 1)
                r.n_before r.n_after r.left r.joined r.rounds r.valid
                r.connected)
            rs;
          if Scenario.fault_model_active cell.scenario then
            let _, _, _, sr, rr, st, reach = totals report in
            Printf.printf
              "faults: sampling retries=%d reply retries=%d stale \
               pointers=%d min reachable=%.3f\n"
              sr rr st reach);
      json =
        Some
          (fun _ ((_, size) as report) ->
            let e, ok, rounds, sr, rr, st, reach = totals report in
            Printf.sprintf
              {|{"cmd":"churn","epochs":%d,"epochs_ok":%d,"rounds":%d,"final_n":%d,"sampling_retries":%d,"reply_retries":%d,"stale_pointers":%d,"min_reachable_fraction":%.4f}|}
              e ok rounds size sr rr st reach);
      row =
        (fun ((_, size) as report) ->
          let e, ok, rounds, _, _, _, _ = totals report in
          [
            ("epochs", Trace.Int e);
            ("epochs_ok", Trace.Int ok);
            ("rounds", Trace.Int rounds);
            ("final_n", Trace.Int size);
          ]);
    }

(* ---------- dos ---------- *)

type dos_report = {
  period : int;
  supernodes : int;
  lateness : int;
  windows : (int * int * Core.Dos_network.window_report option) list;
      (** starved rounds, disconnected rounds, the reconfiguration *)
}

let dos =
  let module N = Core.Dos_network in
  (* reconfigured windows, starved rounds, disconnected rounds, sampling
     retries, fallback draws, the last c multiplier *)
  let totals r =
    List.fold_left
      (fun (ok, st, dc, re, fb, boost) (s, d, lw) ->
        match (lw : N.window_report option) with
        | Some lw ->
            ( (ok + if lw.reconfigured then 1 else 0),
              st + s,
              dc + d,
              re + lw.sampling_retries,
              fb + lw.sampling_fallbacks,
              lw.c_multiplier )
        | None -> (ok, st + s, dc + d, re, fb, boost))
      (0, 0, 0, 0, 0, 1.0) r.windows
  in
  Kind
    {
      name = "dos";
      doc = "drive the DoS-resistant hypercube network (Section 5)";
      default_n = 4096;
      cannot = [];
      reads = [];
      knobs =
        [
          rounds_knob ~flag:"windows" ~docv:"W" ~default:"6" "Windows to run.";
          frac_knob "0.25" "Fraction of nodes blocked per round.";
          lateness_knob;
          staleness_knob;
          knob "strategy" ~default:"group-kill" ~docv:"S"
            "Adversary: random, group-kill, or isolate.";
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let n = sc.n and rng = Grid.cell_rng cell in
          let strategy =
            find_strategy "DoS" Core.Dos_adversary.all
              Core.Dos_adversary.to_string (str cell "strategy")
          in
          let net =
            N.create ~c:2.0 ~trace ?faults:sc.faults ~retry:(retry_policy sc)
              ~rng:(Prng.Stream.split rng) ~n ()
          in
          let p = N.period net in
          let lateness = Option.value (lateness_opt sc) ~default:p in
          let cube = Topology.Hypercube.create (N.dimension net) in
          let adv =
            Core.Dos_adversary.create ~trace ?staleness:sc.staleness strategy
              ~rng:(Prng.Stream.split rng) ~lateness ~frac:sc.frac
          in
          let window _ =
            let starved = ref 0 and disconnected = ref 0 in
            for _ = 1 to p do
              Core.Dos_adversary.observe adv ~epoch:(N.epoch net) (fun () ->
                  N.group_of net);
              let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
              let r = N.run_round net ~blocked in
              if r.starved_groups > 0 then incr starved;
              if not r.connected then incr disconnected
            done;
            (!starved, !disconnected, N.last_window net)
          in
          let windows = List.init (rounds sc 6) window in
          let supernodes = N.supernode_count net in
          { period = p; supernodes; lateness; windows });
      print =
        (fun cell r ->
          let sc = cell.scenario in
          Printf.printf
            "n=%d, %d supernodes, period=%d rounds, adversary=%s lateness=%s \
             frac=%.2f\n\n"
            sc.n r.supernodes r.period (str cell "strategy")
            (match sc.staleness with
            | None -> string_of_int r.lateness
            | Some d -> Simnet.Snapshots.staleness_to_string d)
            sc.frac;
          Printf.printf "%-7s %-15s %-13s %s\n" "window" "starved rounds"
            "disconnected" "reconfigured";
          List.iteri
            (fun w (s, d, (lw : N.window_report option)) ->
              Printf.printf "%-7d %-15s %-13s %b\n" (w + 1)
                (Printf.sprintf "%d/%d" s r.period)
                (Printf.sprintf "%d/%d" d r.period)
                (match lw with Some lw -> lw.reconfigured | None -> false))
            r.windows;
          if Scenario.fault_model_active sc then
            let _, _, _, re, fb, boost = totals r in
            Printf.printf
              "faults: sampling retries=%d fallback draws=%d c \
               multiplier=%.2f\n"
              re fb boost);
      json =
        Some
          (fun _ r ->
            let ok, st, dc, re, fb, boost = totals r in
            let w = List.length r.windows in
            Printf.sprintf
              {|{"cmd":"dos","windows":%d,"rounds":%d,"starved_rounds":%d,"disconnected_rounds":%d,"reconfigured_windows":%d,"sampling_retries":%d,"sampling_fallbacks":%d,"c_multiplier":%.4f}|}
              w (w * r.period) st dc ok re fb boost);
      row =
        (fun r ->
          let ok, st, dc, re, fb, boost = totals r in
          let w = List.length r.windows in
          [
            ("windows", Trace.Int w);
            ("rounds", Trace.Int (w * r.period));
            ("starved_rounds", Trace.Int st);
            ("disconnected_rounds", Trace.Int dc);
            ("reconfigured_windows", Trace.Int ok);
            ("sampling_retries", Trace.Int re);
            ("sampling_fallbacks", Trace.Int fb);
            ("c_multiplier", Trace.Float boost);
          ]);
    }

(* ---------- stabilize ---------- *)

let stabilize =
  let module S = Core.Stabilize in
  Kind
    {
      name = "stabilize";
      doc = "repair a corrupted topology via detect-and-repair reconfiguration";
      default_n = 64;
      cannot = [];
      reads = [ "d" ];
      knobs =
        [
          knob "corruption" ~key:"corruption" ~default:"class=split"
            ~docv:"SPEC"
            "Corrupted initial topology, e.g. \
             $(b,class=branch,severity=0.3,seed=7).  Comma-separated \
             KEY=VALUE pairs; classes: branch, split, range, crosslink, \
             partition, stale.  See docs/fault_model.md.";
          knob "mode" ~default:"repair" ~docv:"M"
            "$(b,repair) runs detect-and-repair epochs; $(b,static) only \
             detects (the baseline that never converges).";
          rounds_knob ~flag:"epochs" ~docv:"E" ~default:"16"
            "Detect-and-repair epoch budget.";
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let corruption =
            match sc.corruption with
            | Some c -> c
            | None -> Simnet.Corruption.make Simnet.Corruption.Split
          in
          let mode = or_usage (S.mode_of_string (str cell "mode")) in
          ( corruption,
            mode,
            Core.Stabilize.run ~trace ~mode ~max_epochs:(rounds sc 16)
              ~retry:(retry_policy sc) ?faults:sc.faults ~corruption
              ~rng:(Prng.Stream.split (Grid.cell_rng cell))
              ~n:sc.n ~d:sc.d () ));
      print =
        (fun cell (corruption, mode, r) ->
          Printf.printf "stabilize: n=%d d=%d corruption=%s mode=%s\n\n"
            cell.scenario.n cell.scenario.d
            (Simnet.Corruption.to_spec corruption)
            (S.mode_to_string mode);
          let row k v = Printf.printf "%-18s %s\n" k v in
          row "converged" (string_of_bool r.S.converged);
          List.iter
            (fun (k, v) -> row k (string_of_int v))
            [
              ("epochs", r.epochs); ("rounds", r.rounds); ("bits", r.bits);
              ("initial violations", r.initial_violations);
              ("residual", List.length r.residual); ("patches", r.patches);
              ("splices", r.splices); ("reconfigs", r.reconfigs);
              ("retries", r.retries);
            ];
          (* cap the residual listing: the count is in the row above, the
             first few examples are what a human needs *)
          List.iteri
            (fun i v ->
              if i < 6 then row "  violation" (Simnet.Invariants.describe v))
            r.residual;
          let extra = List.length r.residual - 6 in
          if extra > 0 then
            row "  violation" (Printf.sprintf "... and %d more" extra));
      json =
        Some
          (fun _ (corruption, mode, r) ->
            Printf.sprintf
              {|{"cmd":"stabilize","class":"%s","severity":%s,"mode":"%s","converged":%b,"epochs":%d,"rounds":%d,"bits":%d,"initial_violations":%d,"residual":%d,"patches":%d,"splices":%d,"reconfigs":%d,"retries":%d}|}
              (Simnet.Corruption.class_to_string corruption.cls)
              (Stats.Float_text.json_repr corruption.severity)
              (S.mode_to_string mode) r.S.converged r.epochs r.rounds r.bits
              r.initial_violations (List.length r.residual) r.patches
              r.splices r.reconfigs r.retries);
      row =
        (fun (_, _, r) ->
          [
            ("converged", Trace.Bool r.S.converged);
            ("epochs", Trace.Int r.epochs);
            ("rounds", Trace.Int r.rounds);
            ("bits", Trace.Int r.bits);
            ("residual", Trace.Int (List.length r.residual));
            ("patches", Trace.Int r.patches);
            ("splices", Trace.Int r.splices);
          ]);
    }

(* ---------- churndos ---------- *)

let churndos =
  let module N = Core.Churndos_network in
  Kind
    {
      name = "churndos";
      doc = "drive the combined churn + DoS network (Section 6)";
      default_n = 4096;
      cannot = [ "retry" ];
      reads = [];
      knobs =
        [
          rounds_knob ~flag:"windows" ~docv:"W" ~default:"10" "Windows to run.";
          knob "gamma" ~default:"1.5" ~ty:Float ~docv:"G"
            "Per-window churn factor (grow then shrink alternately).";
          frac_knob "0.25" "Fraction of nodes blocked per round.";
          lateness_knob;
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let rng = Grid.cell_rng cell and gamma = float cell "gamma" in
          let net =
            N.create ~trace ?faults:sc.faults ~rng:(Prng.Stream.split rng)
              ~n:sc.n ()
          in
          let lateness =
            Option.value (lateness_opt sc) ~default:(2 * N.period net)
          in
          let cube = Topology.Hypercube.create 12 in
          let adv =
            Core.Dos_adversary.create Core.Dos_adversary.Group_kill
              ~rng:(Prng.Stream.split rng) ~lateness ~frac:sc.frac
          in
          let blocked_for_round ~round:_ ~group_of ~n =
            Core.Dos_adversary.observe adv ~epoch:(N.epoch net) (fun () ->
                Array.copy group_of);
            Core.Dos_adversary.blocked_set adv ~cube ~n
          in
          (* the 1st, 3rd, ... window grows the network by gamma, the
             others shrink it back *)
          let window w =
            let cur = float_of_int (N.n net) in
            if w mod 2 = 0 then
              N.run_window net ~blocked_for_round ~leave_frac:0.0
                ~joins:(int_of_float ((gamma -. 1.0) *. cur))
            else
              N.run_window net ~blocked_for_round ~joins:0
                ~leave_frac:(1.0 -. (1.0 /. gamma))
          in
          List.init (rounds sc 10) window);
      print =
        (fun _ rs ->
          Printf.printf "%-7s %-8s %-8s %-9s %-7s %-11s %-8s %s\n" "window"
            "before" "after" "starved" "spread" "supernodes" "dims"
            "reconfigured";
          List.iteri
            (fun w (r : N.window_report) ->
              Printf.printf "%-7d %-8d %-8d %-9d %-7d %-11d [%d..%d] %b\n"
                (w + 1) r.n_before r.n_after r.starved_rounds r.dim_spread
                r.supernodes r.min_dim r.max_dim r.reconfigured)
            rs);
      json = None;
      row =
        (fun rs ->
          let fold g = Trace.Int (List.fold_left g 0 rs) in
          [
            ("windows", Trace.Int (List.length rs));
            ("final_n", fold (fun _ r -> r.N.n_after));
            ("starved_rounds", fold (fun s r -> s + r.N.starved_rounds));
            ("max_dim_spread", fold (fun m r -> max m r.N.dim_spread));
            ( "reconfigured_windows",
              fold (fun k r -> k + Bool.to_int r.N.reconfigured) );
          ]);
    }

(* ---------- groupsim ---------- *)

let groupsim =
  let module G = Core.Group_sim in
  let states gs supernodes =
    List.filter_map (G.state_of gs) (List.init supernodes Fun.id)
  in
  Kind
    {
      name = "groupsim";
      doc =
        "replay the Section 5 group machinery message-by-message (Lemmas \
         14/15)";
      default_n = 2048;
      cannot = [];
      reads = [];
      knobs =
        [
          frac_knob "0.25" "Fraction of nodes blocked per round.";
          knob "kill-group" ~default:"-1" ~ty:Int ~docv:"G"
            "Block every member of group G for the first simulation step.";
        ];
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let n = sc.n and kill = int cell "kill-group" in
          let rng = Grid.cell_rng cell in
          let d = Core.Params.dos_dimension ~c:2.0 ~n in
          let cube = Topology.Hypercube.create d in
          let supernodes = Topology.Hypercube.node_count cube in
          let group_of =
            Array.init n (fun _ -> Prng.Stream.int rng supernodes)
          in
          let proto =
            Core.Supernode_sampling.protocol ~c:2.0 ~trace
              ~fallback:(sc.retry > 0) ~cube ()
          in
          let gs =
            G.create ~trace ?faults:sc.faults ~rng:(Prng.Stream.split rng) ~n
              ~group_of proto
          in
          let arng = Prng.Stream.split rng in
          G.run_all gs ~blocked_for_round:(fun ~round ->
              let b = blocked_fraction arng ~n sc.frac in
              if kill >= 0 && round < 3 then
                Array.iteri
                  (fun v g -> if g = kill then b.(v) <- true)
                  group_of;
              b);
          (supernodes, gs));
      print =
        (fun cell (supernodes, gs) ->
          Printf.printf
            "message-level group simulation: %d nodes, %d supernodes, %d \
             network rounds\n"
            cell.scenario.n supernodes
            (G.network_rounds_total gs);
          let lost = G.lost_groups gs in
          Printf.printf "lost groups:   [%s]\n"
            (String.concat "; " (List.map string_of_int lost));
          let counts = Array.make supernodes 0 in
          List.iter
            (fun st ->
              Array.iter
                (fun v -> counts.(v) <- counts.(v) + 1)
                (Core.Supernode_sampling.samples st))
            (states gs supernodes);
          if List.length lost < supernodes then
            Printf.printf "sample chi2 p: %.3f\n"
              (Stats.Chi_square.test_uniform counts);
          let m = G.metrics gs in
          Printf.printf "messages:      %d\nmax work:      %d bits/node/round\n"
            (Simnet.Metrics.total_msgs m)
            (Simnet.Metrics.max_node_bits_ever m);
          if Scenario.fault_model_active cell.scenario then
            let sum g =
              List.fold_left (fun acc st -> acc + g st) 0 (states gs supernodes)
            in
            Printf.printf "faults:        underflows=%d fallback draws=%d\n"
              (sum Core.Supernode_sampling.underflows)
              (sum Core.Supernode_sampling.fallbacks));
      json =
        Some
          (fun cell (supernodes, gs) ->
            let m = G.metrics gs in
            Printf.sprintf
              {|{"cmd":"groupsim","n":%d,"supernodes":%d,"net_rounds":%d,"lost_groups":%d,"messages":%d,"max_node_bits":%d}|}
              cell.scenario.n supernodes (G.network_rounds_total gs)
              (List.length (G.lost_groups gs))
              (Simnet.Metrics.total_msgs m)
              (Simnet.Metrics.max_node_bits_ever m));
      row =
        (fun (supernodes, gs) ->
          let m = G.metrics gs in
          [
            ("supernodes", Trace.Int supernodes);
            ("net_rounds", Trace.Int (G.network_rounds_total gs));
            ("lost_groups", Trace.Int (List.length (G.lost_groups gs)));
            ("messages", Trace.Int (Simnet.Metrics.total_msgs m));
            ("max_node_bits", Trace.Int (Simnet.Metrics.max_node_bits_ever m));
          ]);
    }

(* ---------- anonymize ---------- *)

let anonymize =
  Kind
    {
      name = "anonymize";
      doc = "issue anonymous requests through the relay overlay (Section 7.1)";
      default_n = 4096;
      cannot = [ "faults"; "retry"; "trace" ];
      reads = [];
      knobs =
        [
          knob "requests" ~default:"1000" ~ty:Int ~docv:"R"
            "Requests to issue.";
          frac_knob "0.25" "Fraction of nodes blocked per round.";
        ];
      run =
        (fun ~trace:_ cell ->
          let sc = cell.scenario in
          let rng = Grid.cell_rng cell and requests = int cell "requests" in
          let split () = Prng.Stream.split rng in
          let net = Core.Dos_network.create ~c:2.0 ~rng:(split ()) ~n:sc.n () in
          let anon = Apps.Anonymizer.create ~net ~rng:(split ()) in
          let blocked = blocked_fraction (split ()) ~n:sc.n sc.frac in
          let delivered = ref 0 in
          let exits = Array.make (Core.Dos_network.supernode_count net) 0 in
          for _ = 1 to requests do
            let r = Apps.Anonymizer.request anon ~blocked in
            if r.delivered then begin
              incr delivered;
              Option.iter (fun g -> exits.(g) <- exits.(g) + 1) r.exit_group
            end
          done;
          (requests, !delivered, Stats.Entropy.normalized_of_counts exits));
      print =
        (fun _ (requests, delivered, entropy) ->
          Printf.printf "delivered:      %d/%d\n" delivered requests;
          Printf.printf "exit entropy:   %.4f of maximum\n" entropy;
          Printf.printf "rounds/request: 4\n");
      json = None;
      row =
        (fun (requests, delivered, entropy) ->
          [
            ("requests", Trace.Int requests);
            ("delivered", Trace.Int delivered);
            ("exit_entropy", Trace.Float entropy);
          ]);
    }

(* ---------- dht ---------- *)

let dht =
  let module D = Apps.Robust_dht in
  Kind
    {
      name = "dht";
      doc = "run a read/write batch against the robust DHT (Section 7.2)";
      default_n = 2048;
      cannot = [ "faults"; "retry"; "trace" ];
      reads = [];
      knobs =
        [
          knob "ops" ~default:"1000" ~ty:Int ~docv:"OPS"
            "Write+read pairs to execute.";
          knob "k" ~default:"4" ~ty:Int ~docv:"K" "Hypercube arity.";
          frac_knob "0.25" "Fraction of nodes blocked per round.";
        ];
      run =
        (fun ~trace:_ cell ->
          let sc = cell.scenario in
          let rng = Grid.cell_rng cell in
          let split () = Prng.Stream.split rng in
          let dht = D.create ~k:(int cell "k") ~rng:(split ()) ~n:sc.n () in
          let blocked = blocked_fraction (split ()) ~n:sc.n sc.frac in
          let ops =
            List.concat_map
              (fun i -> [ D.Write (i, string_of_int i); D.Read i ])
              (List.init (int cell "ops") Fun.id)
          in
          (dht, D.execute_batch dht ~blocked ops));
      print =
        (fun cell (dht, r) ->
          Printf.printf "supernodes:     %d (k=%d, d=%d)\n"
            (D.supernode_count dht) (int cell "k") (D.dimension dht);
          Printf.printf "served:         %d\n" r.D.served;
          Printf.printf "failed:         %d\n" r.failed;
          Printf.printf "max hops:       %d\n" r.max_hops;
          Printf.printf "max group load: %d\n" r.max_group_load);
      json = None;
      row =
        (fun (dht, r) ->
          [
            ("supernodes", Trace.Int (D.supernode_count dht));
            ("served", Trace.Int r.D.served);
            ("failed", Trace.Int r.failed);
            ("max_hops", Trace.Int r.max_hops);
            ("max_group_load", Trace.Int r.max_group_load);
          ]);
    }

(* ---------- the request plane (workload, social) ---------- *)

module W = Workload.Driver

(* --attack, --frac, --static, --period, --backend, --chord-* and
   --lateness: which overlay serves the requests and what attacks it *)
let overlay_knobs =
  let chord_knob key doc = knob key ~key ~docv:"K" doc in
  [
    knob "attack" ~key:"adversary" ~docv:"S"
      "Adversary: none, random, or group-kill.";
    frac_knob "0.1" "Fraction of servers the adversary blocks per round.";
    knob "static" ~default:"false" ~ty:Flag
      "Never reconfigure (the static baseline the paper's networks are \
       measured against).";
    knob "period" ~default:"8" ~ty:Int ~docv:"P"
      "Reconfiguration period in rounds.";
    knob "backend" ~key:"backend" ~docv:"B"
      "Overlay backend serving the requests: $(b,reconfig) (the paper's \
       reconfigurable supernode DHT, the default), $(b,static) (the same \
       DHT, never reconfigured) or $(b,chord) (iterative Chord lookups \
       under the same request plane).";
    chord_knob "chord-fingers"
      "Chord finger-table length (-1 = the id-space width m).";
    chord_knob "chord-succs"
      "Chord successor-list length (-1 = the backend default).";
    chord_knob "chord-period"
      "Chord maintenance period in rounds (-1 = the --period value).";
    lateness_knob;
  ]

(* The mode, backend and attack the overlay knobs select. *)
let overlay (cell : Grid.cell) =
  let sc = cell.scenario in
  let mode, backend =
    match sc.backend with
    | None | Some "reconfig" -> (W.Reconfig, W.Robust)
    | Some "static" -> (W.Static, W.Robust)
    | Some "chord" ->
        ( W.Reconfig,
          W.Chord
            {
              fingers = sc.chord_fingers;
              succs = sc.chord_succs;
              period = sc.chord_period;
            } )
    | Some other -> usage "unknown backend %S (reconfig|static|chord)" other
  in
  ( (if bool cell "static" then W.Static else mode),
    backend,
    match sc.adversary with
    | None -> Workload.Attack.No_attack
    | Some s -> or_usage (Workload.Attack.parse_strategy s) )

(* A request-plane report: a chord backend line (the reconfig goldens
   have none), the source's [head] line, the overlay settings up to the
   adversary's lateness and then [tail], and the per-class [table]. *)
let print_report ~head ~tail ~table (r : W.report) =
  let c = r.config in
  (match c.backend with
  | W.Chord _ -> print_string "backend: chord\n"
  | W.Robust -> ());
  print_endline head;
  Printf.printf "n=%d mode=%s period=%d attack=%s frac=%.2f lateness=%d%s\n\n"
    r.n
    (match c.mode with W.Static -> "static" | W.Reconfig -> "reconfig")
    c.period
    (Workload.Attack.strategy_to_string c.attack)
    c.frac c.lateness tail;
  List.iter print_endline (table r);
  Printf.printf "\nhop messages:   %d\n" r.hop_msgs;
  Printf.printf "max group load: %d\n" r.max_group_load

(* ---------- workload ---------- *)

let workload =
  Kind
    {
      name = "workload";
      doc =
        "run an open/closed-loop request workload against the DHT / pub-sub \
         stack under reconfiguration, DoS, churn, and faults (Section 7)";
      default_n = 1024;
      cannot = [];
      reads = [ "staleness" ];
      knobs =
        [
          rounds_knob ~flag:"rounds" ~docv:"R" ~default:"48"
            "Rounds to simulate.";
          knob "clients" ~default:"64" ~ty:Pos ~docv:"C" "Workload clients.";
          knob "arrivals" ~default:"open:0.25" ~docv:"A"
            "Arrival discipline: $(b,open:RATE) (Poisson arrivals per client \
             per round) or $(b,closed:THINK) (one outstanding request per \
             client, THINK idle rounds between completions).";
          knob "mix" ~docv:"MIX"
            "Request mix as $(b,read=W,write=W,publish=W) (weights are \
             normalized; default read=0.7,write=0.2,publish=0.1).";
          knob "keys" ~default:"256" ~ty:Pos ~docv:"K" "Distinct keys.";
          knob "zipf" ~default:"1.1" ~ty:Float ~docv:"S"
            "Zipf popularity exponent; 0 selects uniform key popularity.";
          knob "slo" ~default:"8" ~ty:Pos ~docv:"L" "Latency SLO in rounds.";
          knob "timeout" ~default:"16" ~ty:Pos ~docv:"T"
            "Rounds after arrival before a request is abandoned.";
        ]
        @ overlay_knobs @ churn_knobs;
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let zipf = float cell "zipf" and churn = float cell "churn" in
          let spec =
            Workload.Spec.make ~clients:(int cell "clients")
              ~rounds:(rounds sc 48) ~keys:(int cell "keys")
              ~arrivals:
                (or_usage (Workload.Spec.parse_arrivals (str cell "arrivals")))
              ?mix:
                (Option.map
                   (fun m -> or_usage (Workload.Spec.parse_mix m))
                   (List.assoc_opt "mix" cell.bindings))
              ~popularity:
                (if zipf <= 0.0 then Workload.Spec.Uniform
                 else Workload.Spec.Zipf zipf)
              ~slo:(int cell "slo") ~timeout:(int cell "timeout") ()
          in
          let mode, backend, attack = overlay cell in
          let churn =
            if churn > 0.0 then
              Some { W.frac = churn; epoch = int cell "churn-epoch" }
            else None
          in
          let cfg =
            W.config ~mode ~period:(int cell "period") ~backend ~attack
              ~frac:sc.frac ?lateness:(lateness_opt sc)
              ?staleness:sc.staleness ?churn ?faults:sc.faults
              ~retries:sc.retry spec
          in
          Workload.Driver.run ~trace ~seed:cell.seed ~n:sc.n cfg);
      print =
        (fun _ r ->
          let c = r.config in
          let s = c.spec in
          print_report r ~table:W.table_lines
            ~head:
              (Printf.sprintf "workload: %s, mix %s, %d keys (%s)"
                 (Workload.Spec.arrivals_to_string s.arrivals)
                 (Workload.Spec.mix_to_string s.mix)
                 s.keys
                 (match s.popularity with
                 | Workload.Spec.Uniform -> "uniform"
                 | Workload.Spec.Zipf z -> Printf.sprintf "zipf %.2f" z))
            ~tail:
              (Printf.sprintf " churn=%.2f retry=%d"
                 (match c.churn with Some ch -> ch.frac | None -> 0.0)
                 c.retries));
      json =
        Some
          (fun _ r ->
            let t = r.total in
            Printf.sprintf
              {|{"cmd":"workload","n":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p90":%d,"p99":%d,"slo_miss":%d,"timeout":%d,"failed":%d,"max_hops":%d,"hop_msgs":%d,"max_group_load":%d}|}
              r.n t.issued t.ok (W.goodput t) (W.percentile t 0.50)
              (W.percentile t 0.90) (W.percentile t 0.99) t.slo_miss
              t.timed_out t.failed t.max_hops r.hop_msgs r.max_group_load);
      row =
        (fun r ->
          let t = r.W.total in
          [
            ("issued", Trace.Int t.issued);
            ("ok", Trace.Int t.ok);
            ("goodput", Trace.Float (W.goodput t));
            ("p50", Trace.Int (W.percentile t 0.50));
            ("p90", Trace.Int (W.percentile t 0.90));
            ("p99", Trace.Int (W.percentile t 0.99));
            ("slo_miss", Trace.Int t.slo_miss);
            ("timeout", Trace.Int t.timed_out);
            ("failed", Trace.Int t.failed);
            ("max_hops", Trace.Int t.max_hops);
            ("hop_msgs", Trace.Int r.hop_msgs);
            ("max_group_load", Trace.Int r.max_group_load);
          ]);
    }

(* ---------- chord ---------- *)

let chord =
  let module C = Chord.Sim in
  Kind
    {
      name = "chord";
      doc =
        "run the Chord backend: ring maintenance + probe lookups under churn, \
         faults, and the stale-view adversary";
      default_n = 256;
      cannot = [];
      reads = [];
      knobs =
        [
          rounds_knob ~flag:"rounds" ~docv:"R" ~default:"64"
            "Rounds to simulate.";
          knob "keys" ~default:"256" ~ty:Int ~docv:"K" "Distinct keys.";
          knob "lookups" ~default:"8" ~ty:Int ~docv:"L"
            "Probe lookups per round.";
          knob "zipf" ~default:"1.1" ~ty:Float ~docv:"S"
            "Zipf popularity exponent; 0 selects uniform key popularity.";
          knob "attack" ~key:"adversary" ~docv:"S"
            "Adversary: $(b,none), $(b,random), or $(b,succ-kill) (the \
             stale-view successor-list attack; $(b,group-kill) is accepted \
             as an alias so one spec drives both backends).";
          frac_knob "0.1" "Fraction of nodes the adversary blocks per round.";
          lateness_knob;
          staleness_knob;
          knob "fingers" ~key:"chord-fingers" ~docv:"NF"
            "Finger-table length (-1 = the id-space width m).";
          knob "succs" ~key:"chord-succs" ~docv:"R"
            "Successor-list length (-1 = max 2 (log2 n)).";
          knob "period" ~key:"chord-period" ~docv:"P"
            "Maintenance period in rounds (-1 = 8).";
        ]
        @ churn_knobs;
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let strategy =
            match sc.adversary with
            | None -> Chord.Adversary.No_attack
            | Some s -> or_usage (Chord.Adversary.parse_strategy s)
          in
          let churn = float cell "churn" in
          let cfg =
            C.config ~rounds:(rounds sc 32) ?fingers:sc.chord_fingers
              ?succs:sc.chord_succs ?period:sc.chord_period
              ~keys:(int cell "keys") ~lookups:(int cell "lookups")
              ~zipf:(float cell "zipf") ~strategy ~frac:sc.frac
              ~lateness:sc.lateness ?staleness:sc.staleness
              ?churn:
                (if churn > 0.0 then Some (churn, int cell "churn-epoch")
                 else None)
              ?faults:sc.faults ~retries:sc.retry ~n:sc.n ()
          in
          Chord.Sim.run ~trace ~seed:cell.seed cfg);
      print = (fun _ r -> List.iter print_endline (C.summary_lines r));
      json =
        Some
          (fun _ r ->
            Printf.sprintf
              {|{"cmd":"chord","n":%d,"m":%d,"issued":%d,"ok":%d,"goodput":%.4f,"p50":%d,"p99":%d,"max_hops":%d,"timeouts":%d,"lookup_msgs":%d,"maint_msgs":%d,"total_bits":%d,"succ_ok":%.4f,"connected":%b,"members":%d}|}
              r.C.config.n r.m r.issued r.ok (C.goodput r)
              (C.percentile r 0.50) (C.percentile r 0.99) r.max_hops
              r.lookup_timeouts r.lookup_msgs r.maint.msgs r.total_bits
              r.succ_ok r.connected r.members);
      row =
        (fun r ->
          [
            ("goodput", Trace.Float (C.goodput r));
            ("p50", Trace.Int (C.percentile r 0.50));
            ("p99", Trace.Int (C.percentile r 0.99));
            ("max_hops", Trace.Int r.C.max_hops);
            ("maint_msgs", Trace.Int r.maint.msgs);
            ("total_bits", Trace.Int r.total_bits);
            ("succ_ok", Trace.Float r.succ_ok);
            ("connected", Trace.Bool r.connected);
            ("members", Trace.Int r.members);
          ]);
    }

(* ---------- social ---------- *)

let social =
  Kind
    {
      name = "social";
      doc =
        "run the Reddit-style social application: five traffic classes with \
         per-class SLOs over the pub-sub / DHT stack, with repost fan-out and \
         online/offline sessions";
      default_n = 1024;
      (* each traffic class carries its own retry budget *)
      cannot = [ "retry" ];
      reads = [];
      knobs =
        [
          knob "users" ~default:"64" ~ty:Pos ~docv:"U" "Application users.";
          knob "topics" ~key:"topics" ~ty:Pos ~docv:"T"
            "Subreddit-like topics (default 16).";
          rounds_knob ~flag:"rounds" ~docv:"R" ~default:"48"
            "Rounds to simulate.";
          knob "rate" ~default:"0.25" ~ty:Float ~docv:"RATE"
            "Mean new requests per online user per round (Poisson).";
          knob "fanout" ~key:"fanout" ~docv:"F"
            "Follower-feed publishes triggered per post (the repost fan-out; \
             default 2).";
          knob "zipf" ~default:"1.1" ~ty:Float ~docv:"S"
            "Topic popularity exponent (s > 0).";
          knob "session" ~key:"session" ~docv:"ONLINE:EPOCH"
            "User session cycle: every EPOCH rounds a fresh 1-ONLINE fraction \
             of users goes offline, and the same fraction of servers churns \
             out (default: everyone always online).";
          staleness_knob;
        ]
        @ overlay_knobs;
      run =
        (fun ~trace cell ->
          let sc = cell.scenario in
          let app =
            Apps.Social.config ~users:(int cell "users") ~rounds:(rounds sc 48)
              ~rate:(float cell "rate") ~zipf:(float cell "zipf")
              ?topics:sc.topics ?fanout:sc.fanout ?session:sc.session ()
          in
          let mode, backend, attack = overlay cell in
          let cfg =
            Workload.Social.config ~mode ~period:(int cell "period") ~backend
              ~attack ~frac:sc.frac ?lateness:(lateness_opt sc)
              ?staleness:sc.staleness ?faults:sc.faults app
          in
          (app, Workload.Social.run ~trace ~seed:cell.seed ~n:sc.n cfg));
      print =
        (fun _ ((app : Apps.Social.config), r) ->
          print_report r ~table:Workload.Social.table_lines ~tail:""
            ~head:
              (Printf.sprintf
                 "social: %d users, %d topics, fanout %d, rate %.2f, zipf \
                  %.2f, session %s"
                 app.users app.topics app.fanout app.rate app.zipf
                 (match app.session with
                 | None -> "-"
                 | Some (on, epoch) -> Printf.sprintf "%g:%d" on epoch)));
      json =
        Some
          (fun _ (_, r) ->
            let cls (c : W.class_report) =
              Printf.sprintf
                {|"%s":{"issued":%d,"ok":%d,"goodput":%.4f,"p99":%d,"slo_miss":%d}|}
                c.cls c.issued c.ok (W.goodput c) (W.percentile c 0.99)
                c.slo_miss
            in
            Printf.sprintf {|{"cmd":"social","n":%d,%s,%s}|} r.W.n
              (String.concat "," (List.map cls r.classes))
              (cls r.total));
      row =
        (fun (_, r) ->
          List.concat_map
            (fun (c : W.class_report) ->
              [
                (c.cls ^ "_goodput", Trace.Float (W.goodput c));
                (c.cls ^ "_p99", Trace.Int (W.percentile c 0.99));
              ])
            r.W.classes
          @ [
              ("goodput", Trace.Float (W.goodput r.total));
              ("slo_miss", Trace.Int r.total.slo_miss);
              ("hop_msgs", Trace.Int r.hop_msgs);
              ("total_bits", Trace.Int r.total_bits);
            ]);
    }

(* The registry, in subcommand order. *)
let kinds =
  [
    sample; churn; dos; stabilize; churndos; groupsim; anonymize; dht;
    workload; chord; social;
  ]

let kind_names = String.concat "|" (List.map (fun (Kind k) -> k.name) kinds)

(* The scenario keys every kind reads: the shared flags. *)
let shared_keys =
  [ "n"; "seed"; "retry"; "faults"; "trace" ]

(* Checks a cell against its kind: every scenario key the cell sets is a
   shared key, a key the kind reads or one of its knobs' keys; every free
   binding names one of the kind's free knobs and holds a well-typed
   value; and no fault plan or retry budget reaches a driver that cannot
   honour it.  Then binds each unbound free knob to its default. *)
let prepare (Kind k) (cell : Grid.cell) =
  let sc = cell.scenario in
  let free = List.filter (fun kn -> kn.key = None) k.knobs in
  (* The refusal lists what the kind does take: its free knobs, and the
     scenario keys it reads (shared, its knobs' and [reads]) less the ones
     its driver cannot honour. *)
  let keys =
    shared_keys @ List.filter_map (fun kn -> kn.key) k.knobs @ k.reads
    |> List.filter (fun key -> not (List.mem key k.cannot))
  in
  let no_knob name =
    Error
      (Printf.sprintf
         "sweep: run=%s has no knob %S (knobs: %s; scenario keys: %s)" k.name
         name
         (String.concat ", " (List.map (fun kn -> kn.flag) free))
         (String.concat ", " keys))
  in
  let read key =
    if
      List.mem key shared_keys || List.mem key k.reads
      || List.exists (fun kn -> kn.key = Some key) k.knobs
    then Ok ()
    else no_knob key
  in
  let check ((name, v) as kv) =
    (* a scenario axis binds its label too; the scenario reflects it *)
    if Scenario.of_args ~base:sc [ kv ] = Ok sc then read name
    else
      match List.find_opt (fun kn -> kn.flag = name) free with
      | Some kn -> check_knob kn v
      | None -> no_knob name
  in
  (* The keys set away from their defaults, by a spec's base segments or
     an axis.  The trace path, a shared key, is left out: a file name may
     hold the [;] that separates the segments. *)
  let set =
    String.split_on_char ';' (Scenario.to_spec { sc with trace = None })
    |> List.filter_map (fun seg ->
           Option.map (fun i -> String.sub seg 0 i) (String.index_opt seg '='))
  in
  let* () = all read set in
  let honour key =
    let given =
      match key with
      | "faults" -> sc.faults <> None
      | "retry" -> sc.retry <> 0
      | "trace" -> sc.trace <> None
      | _ -> invalid_arg ("overlay_sim: unknown scenario key " ^ key)
    in
    if given then
      Error (Printf.sprintf "scenario: %s does not take %s" k.name key)
    else Ok ()
  in
  let* () = all check cell.bindings in
  let* () = all honour k.cannot in
  let unbound kn =
    match kn.default with
    | Some d when not (List.mem_assoc kn.flag cell.bindings) ->
        Some (kn.flag, d)
    | _ -> None
  in
  Ok { cell with bindings = cell.bindings @ List.filter_map unbound free }

(* ---------- the subcommands ---------- *)

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

(* The run-shape flags every kind shares, as Simnet.Scenario key/value
   pairs, so their parsing, validation and error wording live in one
   place.  All default off, leaving the paper's fault-free behaviour. *)
let str_opt name docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let shared_term ~default_n =
  Term.(
    const (fun n seed retry faults trace ->
        let given key = Option.map (fun v -> (key, v)) in
        [
          ("n", string_of_int n); ("seed", string_of_int seed);
          ("retry", string_of_int retry);
        ]
        @ List.filter_map Fun.id [ given "faults" faults; given "trace" trace ])
    $ Arg.(
        value & opt int default_n
        & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
    $ Arg.(
        value & opt int 42
        & info [ "seed" ] ~docv:"SEED"
            ~doc:"PRNG seed (runs are deterministic given the seed).")
    $ Arg.(
        value & opt int 0
        & info [ "retry" ] ~docv:"R"
            ~doc:
              "Give the protocol drivers a recovery budget of $(docv) \
               retries with escalating provisioning (0, the default, \
               reproduces the paper's fault-free drivers).")
    $ str_opt "faults" "SPEC"
        "Inject deterministic faults, e.g. \
         $(b,drop=0.05,dup=0.01,delay=2,crash=3).  Comma-separated \
         KEY=VALUE pairs; keys: drop, dup, delayp, delay, reorder, crash, \
         crashround, recover, seed.  Same seed and spec reproduce the run \
         byte for byte.  See docs/fault_model.md."
    $ str_opt "trace" "FILE"
        "Write structured trace events to $(docv) as JSONL (compact binary \
         if the name ends in .bin; it decodes back to the exact JSONL bytes \
         via trace_check --export-jsonl).  See docs/observability.md for \
         the schema.  The $(b,dht) and $(b,anonymize) kinds emit no trace \
         and reject this flag.")

(* A kind's knobs as (knob, value) pairs: each given or defaulted one. *)
let knobs_term knobs =
  let arg k =
    let i = Arg.info [ k.flag ] ~docv:k.docv ~doc:k.doc in
    match (k.ty, k.default) with
    | Flag, _ ->
        Term.(const (fun v -> Some (string_of_bool v)) $ Arg.(value & flag i))
    | _, Some d -> Term.(const Option.some $ Arg.(value & opt string d i))
    | _, None -> Arg.(value & opt (some string) None i)
  in
  List.fold_right
    (fun k rest ->
      let add v kvs = Option.fold v ~none:kvs ~some:(fun v -> (k, v) :: kvs) in
      Term.(const add $ arg k $ rest))
    knobs (Term.const [])

(* A subcommand runs its kind on a one-cell grid: the shared flags and the
   scenario-key knobs build the cell's scenario, the free knobs bind. *)
let kind_cmd (Kind k as kind) =
  let run shared knobs json () =
    let cell =
      let* () = all (fun (kn, v) -> check_knob kn v) knobs in
      let keyed, free = List.partition (fun (kn, _) -> kn.key <> None) knobs in
      let* sc =
        Scenario.of_args
          (shared @ List.map (fun (kn, v) -> (Option.get kn.key, v)) keyed)
      in
      prepare kind
        {
          Grid.index = 0; id = k.name; scenario = sc;
          bindings = List.map (fun (kn, v) -> (kn.flag, v)) free;
          seed = Int64.of_int sc.seed;
        }
    in
    let cell = or_fail cell in
    let trace = Scenario.trace_sink cell.scenario in
    let r = or_usage_error (fun () -> k.run ~trace cell) in
    Trace.close trace;
    k.print cell r;
    if json then
      print_endline
        (match k.json with
        | Some j -> j cell r
        | None ->
            Trace.jsonl_of_pairs (("cmd", Trace.String k.name) :: k.row r))
  in
  Cmd.v (Cmd.info k.name ~doc:k.doc)
    Term.(
      const run $ shared_term ~default_n:k.default_n $ knobs_term k.knobs
      $ json_term $ verbose_term)

(* ---------- sweep ---------- *)

let sweep_doc =
  "run a declarative experiment grid (checkpointed, resumable, \
   domain-parallel)"

let sweep_value_string = function
  | Trace.Int i -> string_of_int i
  | Trace.Bool b -> string_of_bool b
  | Trace.String s -> s
  | Trace.Float f -> Stats.Float_text.repr f

(* Cell table: one row per cell, one column per payload key, widths fit
   the data.  Cached/fresh status is deliberately not printed — stdout
   must be identical between a fresh run and a resumed one. *)
let sweep_print_table (outcomes : Sweep.Exec.record Sweep.Exec.outcome list) =
  let keys =
    match outcomes with [] -> [] | o :: _ -> List.map fst o.Sweep.Exec.value
  in
  let value (o : _ Sweep.Exec.outcome) k =
    Option.fold ~none:"-" ~some:sweep_value_string (List.assoc_opt k o.value)
  in
  let rows =
    ("cell" :: keys)
    :: List.map (fun o -> o.Sweep.Exec.cell.Grid.id :: List.map (value o) keys)
         outcomes
  in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map (fun _ -> 0) (List.hd rows))
      rows
  in
  (* the cell column is left-aligned, the payload columns right-aligned *)
  let cell i (w, s) =
    let pad = String.make (w - String.length s) ' ' in
    if i = 0 then s ^ pad else pad ^ s
  in
  List.iter
    (fun row ->
      print_endline
        (String.concat "  " (List.mapi cell (List.combine widths row))))
    rows

let sweep_cmd =
  let spec_arg =
    str_opt "spec" "SPEC"
      ("Grid spec string, e.g. \
        $(b,sweep=demo;run=sample;axis:n=64|128;var:c=1.5|2).  Segments \
        separated by ';': $(b,sweep=NAME) names the sweep, $(b,run=R) picks \
        the run kind (" ^ kind_names ^ "), $(b,axis:KEY=v1|v2|...) adds a \
        scenario axis, $(b,var:KEY=v1|v2|...) an axis over one of the \
        kind's other knobs, and any other KEY=VALUE sets the base scenario.  \
        See docs/sweeps.md.")
  in
  let file_arg =
    str_opt "file" "FILE"
      "Read the grid spec from $(docv) (same syntax; newlines also separate \
       segments, '#' starts a comment)."
  in
  let checkpoint_arg =
    str_opt "checkpoint" "FILE"
      "Stream one JSONL record per completed cell to $(docv); rerunning \
       with the same file skips recorded cells and resumes to a \
       byte-identical artifact."
  in
  let domains_arg =
    let doc =
      "Worker domains the sweep's cells are spread over (0 = runtime \
       default, honours OVERLAY_DOMAINS); each cell runs sequentially, so \
       results and artifacts are identical for every value."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let trace_arg =
    str_opt "trace" "FILE"
      "Write per-cell progress events to $(docv) as JSONL (compact binary \
       if the name ends in .bin)."
  in
  let cell_traces_arg =
    str_opt "cell-traces" "DIR"
      "Write one compact binary trace per freshly computed cell under \
       directory $(docv) (created if missing); checkpoint records \
       reference each cell's file under the reserved 'trace' key.  Decode \
       with trace_check --export-jsonl."
  in
  let run spec file checkpoint domains trace_path cell_traces json () =
    let sp, cells =
      or_fail
        (let* sp =
           match (spec, file) with
           | Some s, None -> Sweep.Spec.parse s
           | None, Some f -> Sweep.Spec.load f
           | Some _, Some _ -> Error "pass --spec or --file, not both"
           | None, None -> Error "pass --spec STRING or --file FILE"
         in
         let* cells = Sweep.Spec.cells sp in
         Ok (sp, cells))
    in
    let (Kind k as kind) =
      match List.find_opt (fun (Kind k) -> k.name = sp.run) kinds with
      | Some kind -> kind
      | None ->
          fail (Printf.sprintf "unknown sweep runner %S (%s)" sp.run kind_names)
    in
    (* every cell is checked before the first one runs *)
    let prepared cell = or_fail (prepare kind cell) in
    List.iter (fun c -> ignore (prepared c)) cells;
    let trace =
      match trace_path with
      | None -> Trace.null
      | Some p -> Trace.open_file p
    in
    let outcomes =
      or_usage_error (fun () ->
          Sweep.Exec.run
            ?domains:(if domains <= 0 then None else Some domains)
            ?checkpoint ~trace ?cell_traces ~sweep:sp.name
            ~codec:Sweep.Exec.record_codec cells
            (fun ~trace cell -> k.row (k.run ~trace (prepared cell))))
    in
    Trace.close trace;
    Printf.printf "sweep %s: %d cells (run=%s)\n\n" sp.name
      (List.length outcomes) sp.run;
    sweep_print_table outcomes;
    if json then
      List.iter
        (fun (o : _ Sweep.Exec.outcome) ->
          print_endline
            (Trace.jsonl_of_pairs
               (("cell", Trace.String o.Sweep.Exec.cell.Grid.id)
               :: o.Sweep.Exec.value)))
        outcomes
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:sweep_doc)
    Term.(
      const run $ spec_arg $ file_arg $ checkpoint_arg $ domains_arg
      $ trace_arg $ cell_traces_arg $ json_term $ verbose_term)

let () =
  let index =
    List.map (fun (Kind k) -> (k.name, k.doc)) kinds @ [ ("sweep", sweep_doc) ]
  in
  (* An unknown subcommand gets a deterministic exit-2 diagnostic listing
     every subcommand with its one-liner (cmdliner's own error goes to a
     pager-formatted usage block with a different exit code). *)
  (match Array.to_list Sys.argv with
  | _ :: arg :: _
    when String.length arg > 0
         && arg.[0] <> '-'
         && arg <> "help"
         && not (List.mem_assoc arg index) ->
      Printf.eprintf "overlay_sim: unknown subcommand %S\n\nSubcommands:\n" arg;
      List.iter
        (fun (name, doc) -> Printf.eprintf "  %-9s  %s\n" name doc)
        index;
      Stdlib.exit 2
  | _ -> ());
  let doc =
    "churn- and DoS-resistant overlay networks based on network \
     reconfiguration (SPAA 2016)"
  in
  let info = Cmd.info "overlay_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info (List.map kind_cmd kinds @ [ sweep_cmd ])))

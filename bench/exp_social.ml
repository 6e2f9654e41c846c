(* Experiment E20: the Reddit-style social application under attack and
   session churn, across the three overlay configurations.

   Each cell runs the identical five-class social workload (feed reads
   dominating posts/comments/votes/DMs, repost fan-out, zipf subreddit
   popularity) against one of: the reconfigurable supernode DHT, its
   static no-reshuffle ablation, and the Chord ring.  Paired cells share
   the per-cell seed (only the backend= segment is stripped from the id),
   so all three configurations face draw-for-draw identical request
   schedules, session cycles and adversary budgets.

   The adversary is given the application's real hot spots — the
   subreddit publication counters — so a group-kill lands exactly where
   the feed reads go.  The headline claim mirrors the paper's: under a
   20% group-kill the reconfiguration backend holds every class's SLO
   (classes-ok = 5), while the static ablation loses whole classes — its
   supernode assignment never moves, so the period-late view stays
   accurate and the hot counters stay dead.

   The grid runs through Sweep.Exec, so the table, the BENCH_e20.json
   cells array, and any checkpoint artifact are byte-identical at every
   domain count. *)

open Exp_util

let n = 512
let users = 64
let rounds = 48
let period = 8
let attack_frac = 0.2

(* A class holds its SLO when at least 90% of its issued requests were
   served within the class budget. *)
let slo_held_frac = 0.9

let cells =
  match
    Sweep.Grid.expand
      ~base:{ Simnet.Scenario.default with n }
      ~sweep:"e20"
      [
        Sweep.Grid.scenario_key "backend" [ "reconfig"; "static"; "chord" ];
        Sweep.Grid.scenario_key "adversary" [ "none"; "group-kill" ];
        Sweep.Grid.scenario_key "session" [ "1:8"; "0.85:8" ];
      ]
  with
  | Ok cells -> cells
  | Error e -> failwith e

(* Seed from the cell id with the backend binding stripped: paired cells
   (same environment, different configuration) get identical schedules,
   session cycles, and environment draws. *)
let paired_seed (cell : Sweep.Grid.cell) =
  let env_id =
    cell.Sweep.Grid.id |> String.split_on_char ';'
    |> List.filter (fun s -> not (String.starts_with ~prefix:"backend=" s))
    |> String.concat ";"
  in
  Sweep.Grid.seed_of ~sweep:"e20" env_id

let slo_frac (c : Workload.Driver.class_report) =
  if c.Workload.Driver.issued = 0 then 1.0
  else
    float_of_int (c.Workload.Driver.ok - c.Workload.Driver.slo_miss)
    /. float_of_int c.Workload.Driver.issued

let run_cell (cell : Sweep.Grid.cell) =
  let sc = cell.Sweep.Grid.scenario in
  let attack =
    match sc.Simnet.Scenario.adversary with
    | None -> Workload.Attack.No_attack
    | Some s -> (
        match Workload.Attack.parse_strategy s with
        | Ok a -> a
        | Error e -> invalid_arg e)
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
  let app =
    Apps.Social.config ~users ~rounds ?topics:sc.Simnet.Scenario.topics
      ?fanout:sc.Simnet.Scenario.fanout ?session:sc.Simnet.Scenario.session ()
  in
  let cfg =
    Workload.Social.config ~mode ~period ~backend ~attack ~frac:attack_frac
      ~lateness:period app
  in
  let report =
    Workload.Social.run ~seed:(paired_seed cell) ~n:sc.Simnet.Scenario.n cfg
  in
  let classes = report.Workload.Social.classes in
  let classes_ok =
    List.length (List.filter (fun c -> slo_frac c >= slo_held_frac) classes)
  in
  (* per-class cells pack goodput / p99 / slo-fraction *)
  let packed c =
    Printf.sprintf "%.3f/%d/%.3f"
      (Workload.Driver.goodput c)
      (Workload.Driver.percentile c 0.99)
      (slo_frac c)
  in
  let row =
    [
      Option.value sc.Simnet.Scenario.backend ~default:"reconfig";
      Option.value sc.Simnet.Scenario.adversary ~default:"none";
      (match sc.Simnet.Scenario.session with
      | None -> "-"
      | Some (online, epoch) ->
          Printf.sprintf "%s:%d" (Stats.Float_text.repr online) epoch);
    ]
    @ List.map packed classes
    @ [
        int_c classes_ok;
        int_c report.Workload.Social.total_bits;
      ]
  in
  let bench =
    {
      Sweep.Agg.rounds;
      total_bits = report.Workload.Social.total_bits;
      max_node_bits = 0;
    }
  in
  (row, bench)

let class_names = List.map Apps.Social.class_name Apps.Social.classes

(* One JSON object per cell, rebuilt from the printed rows so the summary
   is a pure function of the same domain-count-invariant artifact. *)
let cells_json rows =
  let obj row =
    match row with
    | backend :: attack :: session :: rest ->
        let classes, tail =
          ( List.filteri (fun i _ -> i < List.length class_names) rest,
            List.filteri (fun i _ -> i >= List.length class_names) rest )
        in
        let cls name packed =
          match String.split_on_char '/' packed with
          | [ g; p99; sf ] ->
              Printf.sprintf {|"%s":{"goodput":%s,"p99":%s,"slo_frac":%s}|}
                name g p99 sf
          | _ -> failwith "e20: unexpected class cell shape"
        in
        let classes_ok, bits =
          match tail with
          | [ ok; bits ] -> (ok, bits)
          | _ -> failwith "e20: unexpected row shape"
        in
        Printf.sprintf
          {|{"backend":"%s","attack":"%s","session":"%s",%s,"classes_ok":%s,"total_bits":%s}|}
          backend attack session
          (String.concat "," (List.map2 cls class_names classes))
          classes_ok bits
    | _ -> failwith "e20: unexpected row shape"
  in
  "[" ^ String.concat "," (List.map obj rows) ^ "]"

let min_classes_ok rows ~backend =
  List.fold_left
    (fun acc row ->
      match row with
      | b :: _ when b = backend -> (
          match List.rev row with
          | _ :: ok :: _ -> min acc (int_of_string ok)
          | _ -> acc)
      | _ -> acc)
    (List.length class_names)
    rows

let e20 () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E20 - social application (5 classes, repost fanout, sessions) \
            across backends: n=%d, %d users, %d rounds, period=%d, attack \
            frac=%.2f; class cells are goodput/p99/slo-frac"
           n users rounds period attack_frac)
      ~columns:
        ([ "backend"; "attack"; "session" ]
        @ class_names
        @ [ "classes-ok"; "total bits" ])
  in
  let rows, bench = sweep_rows ~sweep:"e20" cells run_cell in
  List.iter (Stats.Table.add_row table) rows;
  Stats.Table.note table
    "paired cells share the per-cell seed and full scenario spec; only \
     backend= differs, so all three configurations face draw-for-draw \
     identical schedules, session cycles, and adversary budgets";
  Stats.Table.note table
    "the adversary ranks the application's real hot keys (subreddit \
     publication counters); a class holds its SLO when >= 90% of issued \
     requests are served within its budget (classes-ok counts them)";
  Stats.Table.print table;
  set_extra "cells" (cells_json rows);
  set_extra "reconfig_min_classes_ok"
    (string_of_int (min_classes_ok rows ~backend:"reconfig"));
  set_extra "static_min_classes_ok"
    (string_of_int (min_classes_ok rows ~backend:"static"));
  set_extra "chord_min_classes_ok"
    (string_of_int (min_classes_ok rows ~backend:"chord"));
  bench

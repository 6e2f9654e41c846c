type feature = [ `Drop | `Duplicate | `Delay | `Reorder | `Crash | `Recover ]

let all_features : feature list =
  [ `Drop; `Duplicate; `Delay; `Reorder; `Crash; `Recover ]

let feature_name = function
  | `Drop -> "drop"
  | `Duplicate -> "duplicate"
  | `Delay -> "delay"
  | `Reorder -> "reorder"
  | `Crash -> "crash"
  | `Recover -> "recover"

let features_of_plan (p : Faults.plan) : feature list =
  List.filter
    (fun f ->
      match f with
      | `Drop -> p.Faults.drop > 0.0
      | `Duplicate -> p.Faults.duplicate > 0.0
      | `Delay -> p.Faults.delay_p > 0.0 && p.Faults.delay_max > 0
      | `Reorder -> p.Faults.reorder > 0.0
      | `Crash -> p.Faults.crash > 0
      | `Recover -> p.Faults.crash > 0 && p.Faults.recover_after > 0)
    all_features

type losses = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_lost : int;
}

type t = {
  trace : Trace.t;
  faults : Faults.t option;
  domains : int;
  mutable n : int;
  mutable round : int;
  mutable epoch : int;
  mutable lost_dropped : int;
  mutable lost_duplicated : int;
  mutable lost_delayed : int;
  mutable lost_crash : int;
}

let create ?(trace = Trace.null) ?faults ?(supports = all_features)
    ?(who = "Simnet.Runtime") ?domains ~n () =
  if n <= 0 then invalid_arg (who ^ ": n <= 0");
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) ->
        (match
           List.find_opt
             (fun f -> not (List.mem f supports))
             (features_of_plan plan)
         with
        | Some f ->
            invalid_arg
              (Printf.sprintf
                 "%s: fault plan field `%s' is not supported by this driver"
                 who (feature_name f))
        | None -> ());
        Some (Faults.install plan ~n)
    | _ -> None
  in
  let domains =
    max 1 (match domains with Some d -> d | None -> Parallel.default_domains ())
  in
  {
    trace;
    faults;
    domains;
    n;
    round = 0;
    epoch = 0;
    lost_dropped = 0;
    lost_duplicated = 0;
    lost_delayed = 0;
    lost_crash = 0;
  }

let trace t = t.trace
let traced t = Trace.enabled t.trace
let plan t = Option.map Faults.plan t.faults
let faulty t = t.faults <> None
let domains t = t.domains
let round t = t.round
let epoch t = t.epoch

let advance t ~rounds =
  if rounds < 0 then invalid_arg "Runtime.advance: rounds < 0";
  t.round <- t.round + rounds

let resize t ~n =
  if n <= 0 then invalid_arg "Runtime.resize: n <= 0";
  (match t.faults with Some f -> Faults.resize f ~n | None -> ());
  t.n <- n

let tick t =
  match t.faults with
  | None -> []
  | Some f ->
      let transitions = Faults.tick f ~round:t.round in
      if Trace.enabled t.trace then
        List.iter
          (fun (node, kind) ->
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind =
                     (match kind with `Crash -> "crash" | `Recover -> "recover");
                   round = t.round;
                   fields = [ ("node", Trace.Int node) ];
                 }))
          transitions;
      transitions

let crashed t v =
  match t.faults with Some f -> Faults.crashed f v | None -> false

let losses t =
  {
    dropped = t.lost_dropped;
    duplicated = t.lost_duplicated;
    delayed = t.lost_delayed;
    crash_lost = t.lost_crash;
  }

let fault_event t ~kind fields =
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Fault { kind; round = t.round; fields })

let leg t ?src ?dst () =
  match t.faults with
  | None -> true
  | Some f ->
      let endpoint_crashed = function
        | Some v -> Faults.crashed f v
        | None -> false
      in
      if endpoint_crashed src || endpoint_crashed dst then begin
        (* Mirrors [Engine.send]: a crashed endpoint loses the leg before
           any fault roll, observable in [losses] but not traced as an
           injected fault. *)
        t.lost_crash <- t.lost_crash + 1;
        false
      end
      else begin
        let endpoints =
          (match src with Some v -> [ ("src", Trace.Int v) ] | None -> [])
          @ (match dst with Some v -> [ ("dst", Trace.Int v) ] | None -> [])
        in
        if Faults.roll_drop f then begin
          t.lost_dropped <- t.lost_dropped + 1;
          fault_event t ~kind:"drop" endpoints;
          false
        end
        else
          let hold = Faults.roll_delay f in
          if hold > 0 then begin
            (* A leg that arrives [hold] rounds late misses its attempt's
               round: lost to the attempt, charged as delayed. *)
            t.lost_delayed <- t.lost_delayed + 1;
            fault_event t ~kind:"delay"
              (endpoints @ [ ("until", Trace.Int (t.round + hold)) ]);
            false
          end
          else begin
            if Faults.roll_duplicate f then begin
              (* The extra copy is benign at leg granularity; charge and
                 trace it so the plan's consumption stays observable. *)
              t.lost_duplicated <- t.lost_duplicated + 1;
              fault_event t ~kind:"duplicate" endpoints
            end;
            true
          end
      end

let link_drop t =
  match t.faults with
  | None -> None
  | Some f ->
      let p = Faults.plan f in
      if
        p.Faults.drop > 0.0 || p.Faults.duplicate > 0.0
        || (p.Faults.delay_p > 0.0 && p.Faults.delay_max > 0)
      then Some (fun () -> not (leg t ()))
      else None

type health = { reachable : int; reachable_fraction : float; connected : bool }

let health _t ~n ~neighbors =
  let reachable = Invariants.reachable ~n ~start:0 ~neighbors in
  {
    reachable;
    reachable_fraction = float_of_int reachable /. float_of_int n;
    connected = reachable = n;
  }

let validate_cycles t ~m cycles =
  match Invariants.check_cycles ~m cycles with
  | Ok () -> Ok ()
  | Error v ->
      if Trace.enabled t.trace then Trace.emit t.trace (Invariants.event v);
      Error v

let span t ~name ~rounds fields =
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Span { name; rounds; fields })

let note t ~name fields =
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Note { name; fields })

let adversary t ~kind fields =
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Adversary { kind; fields })

let request t ~op ~round ~client ~latency ~hops ~status =
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Request { op; round; client; latency; hops; status })

let emit_round t ~msgs ~bits ~max_node_bits ~max_node_msgs ~blocked =
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Round
         { round = t.round; msgs; bits; max_node_bits; max_node_msgs; blocked })

type 'a epoch_report = {
  result : 'a;
  index : int;
  rounds : int;
  epoch_losses : losses;
}

let run_epoch t driver =
  let before = losses t in
  let round_before = t.round in
  let result, rounds = driver t in
  if rounds < 0 then invalid_arg "Runtime.run_epoch: driver returned rounds < 0";
  (* The driver may have advanced rounds itself (per-round drivers do);
     only account the remainder. *)
  let accounted = t.round - round_before in
  if accounted < rounds then advance t ~rounds:(rounds - accounted);
  let after = losses t in
  let index = t.epoch in
  t.epoch <- index + 1;
  {
    result;
    index;
    rounds;
    epoch_losses =
      {
        dropped = after.dropped - before.dropped;
        duplicated = after.duplicated - before.duplicated;
        delayed = after.delayed - before.delayed;
        crash_lost = after.crash_lost - before.crash_lost;
      };
  }

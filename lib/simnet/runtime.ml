let feature_name = function
  | `Drop -> "drop"
  | `Duplicate -> "duplicate"
  | `Delay -> "delay"
  | `Reorder -> "reorder"
  | `Crash -> "crash"
  | `Recover -> "recover"

type losses = Faults.losses = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_lost : int;
}

type t = {
  trace : Trace.t;
  faults : Faults.t option;
  mutable n : int;
  mutable round : int;
  mutable epoch : int;
}

let create ?(trace = Trace.null) ?faults ?supports ?(who = "Simnet.Runtime")
    ~n () =
  if n <= 0 then invalid_arg (who ^ ": n <= 0");
  let faults =
    match faults with
    | None -> None
    | Some plan -> (
        match Faults.features plan with
        | [] -> None
        | features ->
            let supports = Option.value supports ~default:features in
            (match List.find_opt (fun f -> not (List.mem f supports)) features with
            | Some f ->
                invalid_arg
                  (Printf.sprintf
                     "%s: fault plan field `%s' is not supported by this driver"
                     who (feature_name f))
            | None -> ());
            Some (Faults.install ~trace plan ~n))
  in
  { trace; faults; n; round = 0; epoch = 0 }

let trace t = t.trace
let traced t = Trace.enabled t.trace
let plan t = Option.map Faults.plan t.faults
let faulty t = t.faults <> None
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
  match t.faults with Some f -> Faults.tick f ~round:t.round | None -> ()

let crashed t v =
  match t.faults with Some f -> Faults.crashed f v | None -> false

let losses t =
  match t.faults with Some f -> Faults.losses f | None -> Faults.no_losses

let endpoint_crashed f = function Some v -> Faults.crashed f v | None -> false

let leg t ?src ?dst () =
  match t.faults with
  | None -> true
  | Some f ->
      if endpoint_crashed f src || endpoint_crashed f dst then begin
        (* Mirrors [Engine.send]: a crashed endpoint loses the leg before
           any fault roll, observable in [losses] but not traced as an
           injected fault. *)
        Faults.charge_crash f 1;
        false
      end
      else (
        match Faults.roll f ~round:t.round ?src ?dst () with
        (* The extra copy is benign at leg granularity. *)
        | Faults.Pass | Faults.Duplicate -> true
        (* A leg that arrives late misses its attempt's round. *)
        | Faults.Drop | Faults.Delay _ -> false)

let link_drop t =
  match t.faults with
  | None -> None
  | Some f ->
      if
        List.exists
          (fun x -> x = `Drop || x = `Duplicate || x = `Delay)
          (Faults.features (Faults.plan f))
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

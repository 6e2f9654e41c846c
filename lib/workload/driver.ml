type mode = Backend_intf.mode = Reconfig | Static

type churn = { frac : float; epoch : int }

type chord_params = Backend_intf.chord_knobs = {
  fingers : int option;
  succs : int option;
  period : int option;
}

type backend = Robust | Chord of chord_params

let chord_defaults = { fingers = None; succs = None; period = None }

type config = {
  spec : Spec.t;
  k : int;
  mode : mode;
  period : int;
  backend : backend;
  attack : Attack.strategy;
  frac : float;
  lateness : int;
  staleness : Simnet.Snapshots.staleness option;
  churn : churn option;
  faults : Simnet.Faults.plan option;
  retries : int;
  domains : int option;
}

let config ?(k = 4) ?(mode = Reconfig) ?(period = 8) ?(backend = Robust)
    ?(attack = Attack.No_attack)
    ?(frac = 0.1) ?lateness ?staleness ?churn ?faults ?(retries = 0) ?domains
    spec =
  let lateness = Option.value lateness ~default:period in
  if k < 2 then invalid_arg "Workload.Driver: arity k < 2";
  if period <= 0 then invalid_arg "Workload.Driver: period <= 0";
  if retries < 0 then invalid_arg "Workload.Driver: negative retries";
  if lateness < 0 then invalid_arg "Workload.Driver: negative lateness";
  (match backend with
  | Robust -> ()
  | Chord { fingers; succs; period } ->
      let knob name = function
        | Some v when v <= 0 ->
            invalid_arg
              (Printf.sprintf "Workload.Driver: chord %s must be > 0" name)
        | _ -> ()
      in
      knob "fingers" fingers;
      knob "succs" succs;
      knob "period" period);
  (match churn with
  | None -> ()
  | Some { frac; epoch } ->
      if frac < 0.0 || frac >= 1.0 || not (Float.is_finite frac) then
        invalid_arg "Workload.Driver: churn frac outside [0, 1)";
      if epoch <= 0 then invalid_arg "Workload.Driver: churn epoch <= 0");
  { spec; k; mode; period; backend; attack; frac; lateness; staleness; churn;
    faults; retries; domains }

type class_report = {
  cls : string;
  issued : int;
  ok : int;
  slo_miss : int;
  timed_out : int;
  failed : int;
  max_hops : int;
  hist : Stats.Log_histogram.t;
}

let goodput r = if r.issued = 0 then 1.0 else float_of_int r.ok /. float_of_int r.issued

let percentile r p =
  if Stats.Log_histogram.total r.hist = 0 then 0
  else Stats.Log_histogram.percentile r.hist p

type report = {
  config : config;
  n : int;
  classes : class_report list;
  total : class_report;
  hop_msgs : int;
  max_group_load : int;
  total_bits : int;
}

(* mutable per-class accumulator; frozen into class_report at the end *)
type acc = {
  a_cls : string;
  mutable a_issued : int;
  mutable a_ok : int;
  mutable a_slo_miss : int;
  mutable a_timed_out : int;
  mutable a_failed : int;
  mutable a_max_hops : int;
  a_hist : Stats.Log_histogram.t;
}

let acc_create cls =
  { a_cls = cls; a_issued = 0; a_ok = 0; a_slo_miss = 0; a_timed_out = 0;
    a_failed = 0; a_max_hops = 0; a_hist = Stats.Log_histogram.create () }

let freeze a =
  { cls = a.a_cls; issued = a.a_issued; ok = a.a_ok; slo_miss = a.a_slo_miss;
    timed_out = a.a_timed_out; failed = a.a_failed; max_hops = a.a_max_hops;
    hist = a.a_hist }

let total_of classes =
  let sum f = List.fold_left (fun a c -> a + f c) 0 classes in
  {
    cls = "all";
    issued = sum (fun c -> c.issued);
    ok = sum (fun c -> c.ok);
    slo_miss = sum (fun c -> c.slo_miss);
    timed_out = sum (fun c -> c.timed_out);
    failed = sum (fun c -> c.failed);
    max_hops = List.fold_left (fun a c -> max a c.max_hops) 0 classes;
    hist =
      (match classes with
      | [] -> Stats.Log_histogram.create ()
      | c :: rest ->
          List.fold_left
            (fun h c' -> Stats.Log_histogram.merge c'.hist h)
            c.hist (List.rev rest));
  }

type attempt =
  | Served of { service : int; hops : int }
  | Attempt_failed of { hops : int }

type server = {
  get : entry:int -> int -> Backend_intf.op_result;
  put : entry:int -> int -> string -> Backend_intf.op_result;
  publish : entry:int -> topic:int -> string -> Backend_intf.op_result;
  last_seq : entry:int -> topic:int -> Backend_intf.op_result;
}

type 'r source = {
  name : string;
  fields : (string * Simnet.Trace.value) list;
  classes : string array;
  class_of : 'r -> int;
  arrival : 'r -> int;
  client : 'r -> int;
  slo : int array;
  timeout : int array;
  retries : int array;
  admit : round:int -> ('r -> unit) -> unit;
  release : 'r -> at:int -> unit;
  exec : server -> entry:int -> 'r -> attempt;
  on_churn : Simnet.Runtime.t -> round:int -> epoch:int -> down:int -> unit;
  health : string option;
}

type 'r pending = { req : 'r; mutable attempts : int }

(* The one round loop.  Overlay decisions go through the backend's hooks,
   workload decisions through the source's.  The call order is part of
   the determinism contract: the same-seed goldens pin it draw for draw. *)
let serve (module B : Backend_intf.S) ?(trace = Simnet.Trace.null) ?hot_keys
    ~who ~seed ~n (cfg : config) make_source =
  let spec = cfg.spec in
  (* fixed split order: every stream is a function of (seed, purpose) *)
  let root = Prng.Stream.of_seed seed in
  let backend_rng = Prng.Stream.split root in
  let service_rng = Prng.Stream.split root in
  let churn_rng = Prng.Stream.split root in
  let attack_rng = Prng.Stream.split root in
  (* All fault application, loss accounting and round/trace emission go
     through the runtime.  Reorder is vacuous on the single-message
     request/reply legs and rejected rather than silently ignored. *)
  let rt =
    Simnet.Runtime.create ~trace ?faults:cfg.faults
      ~supports:[ `Drop; `Duplicate; `Delay; `Crash; `Recover ]
      ~who ?domains:cfg.domains ~n ()
  in
  let blocked = Array.make n false in
  let ctx =
    {
      Backend_intf.n;
      k = cfg.k;
      mode = cfg.mode;
      period = cfg.period;
      attack = cfg.attack;
      frac = cfg.frac;
      lateness = cfg.lateness;
      staleness = cfg.staleness;
      retries = cfg.retries;
      spec;
      hot_keys;
      chord = (match cfg.backend with Chord cp -> cp | Robust -> chord_defaults);
      rng = backend_rng;
      attack_rng;
      rt;
      blocked;
    }
  in
  let b = B.create ctx in
  let server =
    { get = B.get b; put = B.put b; publish = B.publish b;
      last_seq = B.last_seq b }
  in
  let churn_down = Array.make n false in
  (* the source (its request schedule above all) is built after the
     backend: building the schedule first raised the social workload's
     peak RSS by ~4 MB.  Its set-up ends at the run-header note. *)
  let src = make_source () in
  let accs = Array.map acc_create src.classes in
  let hop_msgs = ref 0 and total_bits = ref 0 in
  let queue = Queue.create () in
  Simnet.Runtime.note rt ~name:src.name
    ((("n", Simnet.Trace.Int n) :: B.note_fields b)
    @ src.fields
    @ [
        ( "mode",
          Simnet.Trace.String
            (match cfg.mode with Reconfig -> "reconfig" | Static -> "static") );
        ("attack", Simnet.Trace.String (Attack.strategy_to_string cfg.attack));
      ]);
  (* a request's completion or abandonment: the [Request] event, then
     its client is free again from round [at] *)
  let finish req c ~round ~latency ~hops ~status ~at =
    Simnet.Runtime.request rt ~op:src.classes.(c) ~round
      ~client:(src.client req) ~latency ~hops ~status;
    src.release req ~at
  in
  let record_gave_up req c ~round ~status ~hops =
    let a = accs.(c) in
    (match status with
    | `Timeout -> a.a_timed_out <- a.a_timed_out + 1
    | `Failed -> a.a_failed <- a.a_failed + 1);
    finish req c ~round ~latency:(round - src.arrival req) ~hops
      ~status:(match status with `Timeout -> "timeout" | `Failed -> "failed")
      ~at:(round + 1)
  in
  let record_served req c ~round ~service ~hops =
    let a = accs.(c) in
    let latency = round - src.arrival req + service in
    a.a_ok <- a.a_ok + 1;
    if latency > src.slo.(c) then a.a_slo_miss <- a.a_slo_miss + 1;
    if hops > a.a_max_hops then a.a_max_hops <- hops;
    Stats.Log_histogram.add a.a_hist latency;
    finish req c ~round ~latency ~hops ~status:"ok" ~at:(round + service)
  in
  let attempt p =
    (* Request leg, then reply leg.  Both legs are always rolled (the seed
       driver drew both Bernoullis unconditionally, and drop-only plans
       must keep consuming the fault stream identically). *)
    let lost_req = not (Simnet.Runtime.leg rt ()) in
    let lost_rep = not (Simnet.Runtime.leg rt ()) in
    if lost_req || lost_rep then Attempt_failed { hops = 0 }
    else
      match B.entry b ~rng:service_rng with
      | None -> Attempt_failed { hops = 0 }
      | Some entry -> src.exec server ~entry p.req
  in
  let issue req =
    let a = accs.(src.class_of req) in
    a.a_issued <- a.a_issued + 1;
    Queue.add { req; attempts = 0 } queue
  in
  for r = 0 to spec.Spec.rounds - 1 do
    (* 1. reconfiguration (the robust reshuffle; Chord has none — its
       analogue is the per-round maintenance slice below) *)
    B.reconfigure b ~round:r;
    (* 2. the adversary's delayed observation of the new structure *)
    B.observe b;
    (* 3. churn epoch boundary: membership redraw; backend-specific
       follow-up (Chord re-joins returners through a live introducer) *)
    (match cfg.churn with
    | Some { frac; epoch } when r mod epoch = 0 ->
        let was_down = Array.copy churn_down in
        Array.fill churn_down 0 n false;
        let down = int_of_float (frac *. float_of_int n) in
        if down > 0 then begin
          let picks = Prng.Stream.sample_distinct churn_rng n ~k:down in
          Array.iter (fun v -> churn_down.(v) <- true) picks
        end;
        B.churn b ~rng:churn_rng ~was_down ~down:churn_down;
        Simnet.Runtime.adversary rt ~kind:"churn"
          [ ("round", Simnet.Trace.Int r); ("down", Simnet.Trace.Int down) ];
        src.on_churn rt ~round:r ~epoch:(r / epoch) ~down
    | _ -> ());
    (* 4. scheduled crash / recover transitions *)
    ignore (Simnet.Runtime.tick rt);
    (* 5. this round's blocked set: churn + crashes + adversary budget *)
    for v = 0 to n - 1 do
      blocked.(v) <- churn_down.(v) || Simnet.Runtime.crashed rt v
    done;
    B.mark_attack b ~into:blocked;
    let blocked_count =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked
    in
    (* 6. per-round counters, then one maintenance slice and, at each
       reconfiguration period, the source's health probe *)
    B.begin_round b;
    B.maintain b;
    (match src.health with
    | Some name when r > 0 && r mod cfg.period = 0 ->
        Simnet.Runtime.note rt ~name
          (("round", Simnet.Trace.Int r) :: B.health b)
    | _ -> ());
    (* 7. admissions *)
    src.admit ~round:r issue;
    (* 8. one service attempt per pending request; retries requeue behind
       this round's snapshot and wait for the next round *)
    let in_flight = Queue.length queue in
    for _ = 1 to in_flight do
      let p = Queue.pop queue in
      p.attempts <- p.attempts + 1;
      let c = src.class_of p.req in
      match attempt p with
      | Served { service; hops } ->
          record_served p.req c ~round:r ~service ~hops
      | Attempt_failed { hops } ->
          if p.attempts > src.retries.(c) then
            record_gave_up p.req c ~round:r ~status:`Failed ~hops
          else if r + 1 > src.arrival p.req + src.timeout.(c) then
            record_gave_up p.req c ~round:r ~status:`Timeout ~hops
          else Queue.add p queue
    done;
    (* 9. round boundary *)
    let e = B.emit_round b in
    hop_msgs := !hop_msgs + e.Backend_intf.req_msgs;
    total_bits := !total_bits + e.Backend_intf.bits;
    Simnet.Runtime.emit_round rt ~msgs:e.Backend_intf.msgs
      ~bits:e.Backend_intf.bits ~max_node_bits:e.Backend_intf.max_node_bits
      ~max_node_msgs:e.Backend_intf.max_node_msgs ~blocked:blocked_count;
    Simnet.Runtime.advance rt ~rounds:1
  done;
  (* drain: whatever is still pending never completed in time *)
  Queue.iter
    (fun p ->
      record_gave_up p.req (src.class_of p.req) ~round:spec.Spec.rounds
        ~status:`Timeout ~hops:0)
    queue;
  Queue.clear queue;
  let classes = Array.to_list (Array.map freeze accs) in
  {
    config = cfg;
    n;
    classes;
    total = total_of classes;
    hop_msgs = !hop_msgs;
    max_group_load = B.max_group_load b;
    total_bits = !total_bits;
  }

let admit_schedule ~arrival schedule =
  let pos = ref 0 in
  fun ~(round : int) issue ->
    while !pos < Array.length schedule && arrival schedule.(!pos) = round do
      issue schedule.(!pos);
      incr pos
    done

let payload_of req =
  Printf.sprintf "v%d.%d" req.Gen.client req.Gen.seq

let spec_exec server ~entry req =
  let res, base_ops =
    match req.Gen.op with
    | Gen.Read -> (server.get ~entry req.Gen.key, 1)
    | Gen.Write -> (server.put ~entry req.Gen.key (payload_of req), 1)
    | Gen.Publish ->
        (* topic = key + 1: composite (topic, seq) then never collides
           with the plain key space the reads/writes use *)
        (server.publish ~entry ~topic:(req.Gen.key + 1) (payload_of req), 3)
  in
  if res.Backend_intf.ok then
    Served
      {
        service = base_ops + res.Backend_intf.hops + res.Backend_intf.waits;
        hops = res.Backend_intf.hops;
      }
  else Attempt_failed { hops = res.Backend_intf.hops }

(* The client workload of {!Spec}: three classes sharing one budget,
   admitted from the open-loop schedule or by the closed-loop clients. *)
let spec_source ~seed (cfg : config) () =
  let spec = cfg.spec in
  let admit, release =
    match spec.Spec.arrivals with
    | Spec.Open_loop _ ->
        ( admit_schedule
            ~arrival:(fun req -> req.Gen.arrival)
            (Gen.open_schedule ?domains:cfg.domains ~spec ~seed ()),
          fun _ ~at:_ -> () )
    | Spec.Closed_loop { think } ->
        let clients = spec.Spec.clients in
        let streams =
          Array.init clients (fun client -> Gen.client_stream ~seed ~client)
        in
        let next_issue = Array.make clients 0 in
        let next_seq = Array.make clients 0 in
        let outstanding = Array.make clients false in
        ( (fun ~round issue ->
            for c = 0 to clients - 1 do
              if (not outstanding.(c)) && next_issue.(c) <= round then begin
                let op, key = Gen.draw_request spec streams.(c) in
                issue
                  { Gen.client = c; seq = next_seq.(c); arrival = round; op;
                    key };
                next_seq.(c) <- next_seq.(c) + 1;
                outstanding.(c) <- true
              end
            done),
          fun req ~at ->
            outstanding.(req.Gen.client) <- false;
            next_issue.(req.Gen.client) <- at + think )
  in
  let all v = Array.make 3 v in
  {
    name = "workload/run";
    fields =
      [
        ("clients", Simnet.Trace.Int spec.Spec.clients);
        ("rounds", Simnet.Trace.Int spec.Spec.rounds);
        ( "arrivals",
          Simnet.Trace.String (Spec.arrivals_to_string spec.Spec.arrivals) );
        ("mix", Simnet.Trace.String (Spec.mix_to_string spec.Spec.mix));
      ];
    classes = Array.map Gen.class_name [| Gen.Read; Gen.Write; Gen.Publish |];
    class_of =
      (fun req -> match req.Gen.op with Read -> 0 | Write -> 1 | Publish -> 2);
    arrival = (fun req -> req.Gen.arrival);
    client = (fun req -> req.Gen.client);
    slo = all spec.Spec.slo;
    timeout = all spec.Spec.timeout;
    retries = all cfg.retries;
    admit;
    release;
    exec = spec_exec;
    on_churn = (fun _ ~round:_ ~epoch:_ ~down:_ -> ());
    health = None;
  }

let run_backend backend ?trace ~seed ~n cfg =
  serve backend ?trace ~who:"Workload.Driver" ~seed ~n cfg
    (spec_source ~seed cfg)

let run ?trace ~seed ~n (cfg : config) =
  match cfg.backend with
  | Robust -> run_backend (module Backends.Robust) ?trace ~seed ~n cfg
  | Chord _ -> run_backend (module Backends.Chord_ring) ?trace ~seed ~n cfg

let row_format : _ format =
  "%-8s %6s %6s %8s %5s %5s %5s %9s %8s %7s %9s"

let table_row c =
  Printf.sprintf row_format c.cls
    (string_of_int c.issued)
    (string_of_int c.ok)
    (Printf.sprintf "%.3f" (goodput c))
    (string_of_int (percentile c 0.50))
    (string_of_int (percentile c 0.90))
    (string_of_int (percentile c 0.99))
    (string_of_int c.slo_miss)
    (string_of_int c.timed_out)
    (string_of_int c.failed)
    (string_of_int c.max_hops)

let table_header =
  Printf.sprintf row_format "class" "issued" "ok" "goodput" "p50" "p90" "p99"
    "slo-miss" "timeout" "failed" "max-hops"

let table_lines (report : report) =
  table_header
  :: (List.map table_row report.classes @ [ table_row report.total ])

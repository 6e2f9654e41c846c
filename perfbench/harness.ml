(* One repetition of one end-to-end benchmark workload.

   The harness drives the library from outside, through the same public
   entry points the CLI uses, and prints one JSON object on stdout: the
   workload's provenance, its set-up and wall time, peak resident memory,
   operation accounting, output checks, a digest of the simulated report
   and — for a traced repetition — the per-layer split.  [run.py] launches
   one process per repetition and aggregates them.

   Untraced repetitions (the default) take exactly one timestamp inside
   the run: the boundary between set-up and the round loop.  The driver
   workloads get it from the first [reconfigure] call through a
   pass-through backend wrapper; the social workload, whose runner takes
   no backend module, from its first trace event (the [social/run] header,
   emitted once the schedule is built) through a sink that closes itself
   on that event.  A traced repetition ([--trace-file FILE]) writes the
   binary trace to FILE through a sink that timestamps and times every
   emit and, on the driver workloads, wraps the robust backend in a
   functor that times each call into [Workload.Backend_intf.S]. *)

let clock () = Monotonic_clock.now ()
let secs ns = float_of_int ns *. 1e-9
let since t0 = Int64.to_int (Int64.sub (clock ()) t0)

(* Words allocated so far, worker domains included once joined. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" Fun.id
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> scan ())
      in
      let kb = scan () in
      close_in ic;
      kb

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and k = List.length s in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* ---------- workloads ---------- *)

type workload = Dht_reshuffle | Dht_requests | Social_posts | Hgraph_churn

let workloads =
  [ ("dht-reshuffle", Dht_reshuffle); ("dht-requests", Dht_requests);
    ("social-posts", Social_posts); ("hgraph-churn", Hgraph_churn) ]

(* Shapes at full scale and at the smoke scale (n = 256).  Every request
   load is open-loop in simulated rounds (Poisson arrivals per client). *)
type dht_shape = { n : int; clients : int; rate : float; rounds : int; period : int }

let dht_shape ~smoke = function
  | Dht_reshuffle ->
      { n = (if smoke then 256 else 65536); clients = 256; rate = 0.25;
        rounds = 24; period = 8 }
  | _ ->
      { n = (if smoke then 256 else 4096); clients = (if smoke then 256 else 4096);
        rate = 1.0; rounds = (if smoke then 64 else 256); period = 32 }

let social_n ~smoke = if smoke then 256 else 4096
let social_users ~smoke = if smoke then 256 else 2048
let social_rounds ~smoke = if smoke then 64 else 256
let social_period = 32
let churn_n ~smoke = if smoke then 256 else 4096
let churn_epochs = 2
let churn_frac = 0.3

(* Goodput floors at full scale, set below the lowest goodput seen on
   seeds 1-44 (social) and 1-12 (dht).  The dht floor is on all requests:
   a class of a few hundred requests swings by a percent between seeds.
   Posts and comments (chained publishes to the hottest topics) dip on a
   few seeds, to 0.917 at worst.  The smoke scale (supernodes of a few
   servers under a 20% group-kill) checks accounting only. *)
let dht_floor ~smoke cls = if smoke || cls <> "all" then 0.0 else 0.99

let social_floor ~smoke cls =
  if smoke then 0.0
  else
    match cls with
    | "post" | "comment" -> 0.80
    | "dm" -> 0.99
    | "all" -> 0.93
    | _ -> 0.98

(* Every run draws its fault stream from the benchmark seed too. *)
let drop_plan seed =
  Simnet.Faults.make ~drop:0.05 ~seed:(Int64.logxor seed 0x5eedL) ()

(* ---------- the traced sink ---------- *)

(* A stamp is a clock reading plus the sink's cumulative emit time at that
   moment, so interval durations can exclude the sink's own cost. *)
type stamp = { at : int64; emitted : int }

let emit_ns = ref 0
let events = ref 0
let kinds : (string, int) Hashtbl.t = Hashtbl.create 8

(* round, span and note events with the stamp taken just before their own
   emit, newest first; request, fault and adversary events are counted *)
let marks : (stamp * Simnet.Trace.event) list ref = ref []
let on_request : (Simnet.Trace.event -> unit) ref = ref ignore
let stamp () = { at = clock (); emitted = !emit_ns }

(* exclusive nanoseconds between two stamps *)
let excl a b = Int64.to_int (Int64.sub b.at a.at) - (b.emitted - a.emitted)

let count_kind tbl ev =
  let k = Simnet.Trace.kind_of_event ev in
  Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

(* the first event's stamp: on the social workload, the end of set-up *)
let first_event : stamp option ref = ref None

let timed_sink path =
  let inner = Simnet.Trace.open_file ~format:Simnet.Trace.Binary path in
  Simnet.Trace.make
    ~emit:(fun ev ->
      let st = stamp () in
      if !first_event = None then first_event := Some st;
      Simnet.Trace.emit inner ev;
      (match ev with
      | Simnet.Trace.Round _ | Span _ | Note _ -> marks := (st, ev) :: !marks
      | Request _ -> !on_request ev
      | _ -> ());
      count_kind kinds ev;
      incr events;
      emit_ns := !emit_ns + since st.at)
    ~close:(fun () -> Simnet.Trace.close inner)

(* Untraced social runs: the first event marks the set-up boundary, then
   the sink closes itself, so nothing else is recorded or written. *)
let boundary_sink () =
  let self = ref Simnet.Trace.null in
  self :=
    Simnet.Trace.make
      ~emit:(fun _ ->
        if !first_event = None then first_event := Some (stamp ());
        Simnet.Trace.close !self)
      ~close:ignore;
  !self

(* ---------- per-call timing of the driver's backend ---------- *)

type timer = { mutable ns : int; mutable calls : int }

let timer () = { ns = 0; calls = 0 }

let timed tm f =
  let t0 = clock () in
  let r = f () in
  tm.ns <- tm.ns + since t0;
  tm.calls <- tm.calls + 1;
  r

let boundary : stamp option ref = ref None
let mark_boundary () = if !boundary = None then boundary := Some (stamp ())

module L = struct
  let create = timer ()
  let reshuffle = timer ()
  let observe = timer ()
  let mark = timer ()
  let entry = timer ()
  let route = timer ()
  let reshuffles = ref 0
  let reshuffle_words = ref 0.0
  let runtime : Simnet.Runtime.t option ref = ref None
end

(* Untraced: every call passes through; only the first reconfigure is
   recorded. *)
module Boundary (B : Workload.Backend_intf.S) : Workload.Backend_intf.S =
struct
  include B

  let reconfigure t ~round =
    mark_boundary ();
    B.reconfigure t ~round
end

(* Set-up only: the first reconfigure abandons the run. *)
exception Setup_done

module Abort (B : Workload.Backend_intf.S) : Workload.Backend_intf.S = struct
  include B

  let reconfigure _ ~round:_ = raise Setup_done
end

(* Traced: each call into the backend's layers is timed. *)
module Timed (B : Workload.Backend_intf.S) : Workload.Backend_intf.S = struct
  type t = { b : B.t; reshuffles_at : int -> bool }

  let create (ctx : Workload.Backend_intf.ctx) =
    let b = timed L.create (fun () -> B.create ctx) in
    L.runtime := Some ctx.rt;
    (* the robust backend reshuffles on exactly these rounds *)
    let reshuffles_at r =
      ctx.mode = Workload.Backend_intf.Reconfig && r > 0 && r mod ctx.period = 0
    in
    { b; reshuffles_at }

  let note_fields t = B.note_fields t.b

  let reconfigure t ~round =
    mark_boundary ();
    let w0 = words () in
    timed L.reshuffle (fun () -> B.reconfigure t.b ~round);
    L.reshuffle_words := !L.reshuffle_words +. (words () -. w0);
    if t.reshuffles_at round then incr L.reshuffles

  let observe t = timed L.observe (fun () -> B.observe t.b)
  let churn t ~rng ~was_down ~down = B.churn t.b ~rng ~was_down ~down
  let mark_attack t ~into = timed L.mark (fun () -> B.mark_attack t.b ~into)
  let begin_round t = B.begin_round t.b
  let maintain t = B.maintain t.b
  let entry t ~rng = timed L.entry (fun () -> B.entry t.b ~rng)
  let get t ~entry key = timed L.route (fun () -> B.get t.b ~entry key)
  let put t ~entry key v = timed L.route (fun () -> B.put t.b ~entry key v)

  let publish t ~entry ~topic v =
    timed L.route (fun () -> B.publish t.b ~entry ~topic v)

  let last_seq t ~entry ~topic =
    timed L.route (fun () -> B.last_seq t.b ~entry ~topic)

  let emit_round t = B.emit_round t.b
  let health t = B.health t.b
  let max_group_load t = B.max_group_load t.b
end

(* ---------- results ---------- *)

type json =
  | F of float
  | I of int
  | S of string
  | Bool of bool
  | O of (string * json) list
  | A of json list

let rec to_json = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | O kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (to_json v)) kvs)
      ^ "}"
  | A vs -> "[" ^ String.concat "," (List.map to_json vs) ^ "]"

type outcome = {
  shape : (string * json) list;  (** n, rounds or epochs, clients or users *)
  setup_ns : int;
  wall_ns : int;
  node_rounds : int;  (** n x simulated rounds *)
  ops : int;  (** simulated requests, or churn epochs *)
  ops_failed : int;  (** operations that failed an output check *)
  checks : string list;  (** failed checks; empty when the run is correct *)
  digest : string;  (** of the simulated report *)
  detail : (string * json) list;
  layers : (string * float) list;  (** traced repetitions only *)
  setup_again : unit -> unit;
      (** the same set-up once more, abandoned at the set-up boundary *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* issued = ok + timed_out + failed for every class, and a goodput floor *)
let class_checks ~floor (classes : Workload.Driver.class_report list) =
  List.concat_map
    (fun (c : Workload.Driver.class_report) ->
      let g = Workload.Driver.goodput c in
      (if c.issued = c.ok + c.timed_out + c.failed then []
       else [ Printf.sprintf "%s: issued <> ok + timed_out + failed" c.cls ])
      @
      if g >= floor c.cls then []
      else [ Printf.sprintf "%s: goodput %.4f below %.2f" c.cls g (floor c.cls) ])
    classes

let class_json (c : Workload.Driver.class_report) =
  ( c.cls,
    O
      [ ("issued", I c.issued); ("ok", I c.ok); ("timed_out", I c.timed_out);
        ("failed", I c.failed); ("slo_miss", I c.slo_miss);
        ("goodput", F (Workload.Driver.goodput c)) ] )

(* Attempts per request, recovered exactly from its [Request] event: a
   pending request gets one attempt per round from its arrival round on.
   Served: latency = (round - arrival) + service, with service = base ops
   + hops on the robust backend (1 op, or 3 for a publish).  Given up:
   latency = round - arrival, except that the drain at the horizon comes
   one round after the last attempt. *)
let attempts = ref 0

let count_attempts ~horizon = function
  | Simnet.Trace.Request { op; round; latency; hops; status; _ } ->
      let a =
        if status = "ok" then
          latency - ((if op = "publish" then 3 else 1) + hops) + 1
        else if round = horizon then latency
        else latency + 1
      in
      attempts := !attempts + a
  | _ -> ()

(* The binary trace folds back with the events the sink saw, and one
   [Round] event per simulated round, in order. *)
let fold_check path ~rounds =
  let folded = Hashtbl.create 8 in
  let next_round = ref 0 and out_of_order = ref false in
  Simnet.Trace.fold_binary_file path ~init:() ~f:(fun () ev ->
      count_kind folded ev;
      match ev with
      | Simnet.Trace.Round { round; _ } ->
          if round <> !next_round then out_of_order := true;
          incr next_round
      | _ -> ());
  let count tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.filter_map
    (fun k ->
      if count folded k = count kinds k then None
      else
        Some
          (Printf.sprintf "trace: %d %s events folded back, %d emitted"
             (count folded k) k (count kinds k)))
    (List.sort_uniq compare (keys kinds @ keys folded))
  @ (match rounds with
    | Some r when count folded "round" <> r || !out_of_order ->
        [ Printf.sprintf "trace: %d round events for %d simulated rounds"
            (count folded "round") r ]
    | _ -> [])

(* [total] spans the whole workload function, configuration and the final
   flush included; whatever no layer claims is [unattributed_s]. *)
let trace_layers ~path ~total ~attributed_ns =
  let bytes = In_channel.with_open_bin path In_channel.length in
  [ ("trace.events", float_of_int !events);
    ("trace.emit_s", secs !emit_ns);
    ("trace.bytes", Int64.to_float bytes);
    ("unattributed_s", secs (excl (fst total) (snd total) - attributed_ns)) ]

(* ---------- dht-reshuffle / dht-requests ---------- *)

let run_dht ~smoke ~seed ~domains ~trace_file w =
  let t_start = stamp () in
  let sh = dht_shape ~smoke w in
  let spec =
    Workload.Spec.make ~clients:sh.clients ~rounds:sh.rounds
      ~arrivals:(Workload.Spec.Open_loop { rate = sh.rate })
      ~mix:{ Workload.Spec.read = 0.7; write = 0.2; publish = 0.1 }
      ~popularity:(Workload.Spec.Zipf 1.1) ()
  in
  let cfg =
    Workload.Driver.config ~mode:Workload.Driver.Reconfig ~period:sh.period
      ~attack:Workload.Attack.Group_kill ~frac:0.2 ~faults:(drop_plan seed)
      ~retries:3 ~domains spec
  in
  let backend : (module Workload.Backend_intf.S) =
    match trace_file with
    | Some _ -> (module Timed (Workload.Backends.Robust))
    | None -> (module Boundary (Workload.Backends.Robust))
  in
  let trace =
    match trace_file with
    | Some path ->
        on_request := count_attempts ~horizon:sh.rounds;
        timed_sink path
    | None -> Simnet.Trace.null
  in
  let t0 = stamp () in
  let r = Workload.Driver.run_backend backend ~trace ~seed ~n:sh.n cfg in
  let t_end = stamp () in
  let setup_again () =
    ignore
      (Workload.Driver.run_backend (module Abort (Workload.Backends.Robust))
         ~seed ~n:sh.n cfg)
  in
  Simnet.Trace.close trace;
  let t_stop = stamp () in
  let tb = Option.value !boundary ~default:t_end in
  let classes = r.classes @ [ r.total ] in
  let checks = class_checks ~floor:(dht_floor ~smoke) classes in
  let checks, layers =
    match trace_file with
    | None -> (checks, [])
    | Some path ->
        let entries = L.entry.calls in
        let dropped =
          match !L.runtime with
          | Some rt -> (Simnet.Runtime.losses rt).Simnet.Runtime.dropped
          | None -> 0
        in
        (* every attempt either reaches an entry server or loses a leg *)
        let attempt_check =
          if !attempts >= entries && !attempts - entries <= dropped then []
          else
            [ Printf.sprintf "attempts %d vs %d entries and %d dropped legs"
                !attempts entries dropped ]
        in
        let children =
          L.reshuffle.ns + L.observe.ns + L.mark.ns + L.entry.ns + L.route.ns
        in
        let setup_self = excl t0 tb - L.create.ns in
        let loop_self = excl tb t_end - children in
        ( checks @ attempt_check @ fold_check path ~rounds:(Some sh.rounds),
          [ ("trace.wall_s", secs (Int64.to_int (Int64.sub t_end.at tb.at)));
            ("robust_dht.create_s", secs L.create.ns);
            ("robust_dht.reshuffle_s", secs L.reshuffle.ns);
            ("robust_dht.reshuffle_mwords", !L.reshuffle_words /. 1e6);
            ("robust_dht.reshuffles", float_of_int !L.reshuffles);
            ("robust_dht.route_s", secs L.route.ns);
            ("robust_dht.route_calls", float_of_int L.route.calls);
            ( "robust_dht.route_ns_per_call",
              ratio (float_of_int L.route.ns) (float_of_int L.route.calls) );
            ("robust_dht.entry_s", secs L.entry.ns);
            ("robust_dht.hop_msgs", float_of_int r.hop_msgs);
            ("attack.observe_s", secs L.observe.ns);
            ("attack.mark_s", secs L.mark.ns);
            ("driver.setup_s", secs setup_self);
            ("driver.self_s", secs loop_self);
            ("driver.attempts", float_of_int !attempts);
            ("driver.retries", float_of_int (!attempts - r.total.issued));
            ( "driver.attempts_per_served",
              ratio (float_of_int !attempts) (float_of_int r.total.ok) ) ]
          @ trace_layers ~path ~total:(t_start, t_stop)
              ~attributed_ns:(L.create.ns + setup_self + children + loop_self) )
  in
  {
    shape =
      [ ("n", I sh.n); ("rounds", I sh.rounds); ("clients", I sh.clients);
        ("rate", F sh.rate); ("period", I sh.period) ];
    setup_ns = Int64.to_int (Int64.sub tb.at t0.at);
    wall_ns = Int64.to_int (Int64.sub t_end.at tb.at);
    node_rounds = sh.n * sh.rounds;
    ops = r.total.issued;
    ops_failed = (if checks = [] then 0 else r.total.issued);
    checks;
    digest =
      digest
        (Workload.Driver.table_lines r
        @ List.map string_of_int [ r.hop_msgs; r.max_group_load; r.total_bits ]);
    detail =
      [ ("classes", O (List.map class_json classes)); ("hop_msgs", I r.hop_msgs) ];
    layers;
    setup_again;
  }

(* ---------- social-posts ---------- *)

let run_social ~smoke ~seed ~domains ~trace_file =
  let t_start = stamp () in
  let n = social_n ~smoke and users = social_users ~smoke in
  let rounds = social_rounds ~smoke in
  let app =
    Apps.Social.config ~users ~rounds ~rate:1.0 ~zipf:1.1 ~session:(0.85, 16) ()
  in
  let cfg =
    Workload.Social.config ~mode:Workload.Driver.Reconfig ~period:social_period
      ~attack:Workload.Attack.Group_kill ~frac:0.2 ~faults:(drop_plan seed)
      ~domains app
  in
  let trace =
    match trace_file with Some path -> timed_sink path | None -> boundary_sink ()
  in
  let t0 = stamp () in
  let r = Workload.Social.run ~trace ~seed ~n cfg in
  let t_end = stamp () in
  let setup_again () =
    let trace = Simnet.Trace.make ~emit:(fun _ -> raise Setup_done) ~close:ignore in
    ignore (Workload.Social.run ~trace ~seed ~n cfg)
  in
  Simnet.Trace.close trace;
  let t_stop = stamp () in
  (* the first event, the [social/run] header, closes set-up *)
  let tb = Option.value !first_event ~default:t_end in
  let classes = r.classes @ [ r.total ] in
  let checks = class_checks ~floor:(social_floor ~smoke) classes in
  let checks, layers =
    match trace_file with
    | None -> (checks, [])
    | Some path ->
        (* round r runs from the previous round boundary (or the header)
           to its own [Round] event *)
        let durations =
          List.rev !marks
          |> List.fold_left
               (fun (prev, acc) (st, ev) ->
                 match ev with
                 | Simnet.Trace.Round { round; _ } ->
                     (st, (round, excl prev st) :: acc)
                 | _ -> (prev, acc))
               (tb, [])
          |> snd
        in
        let is_reshuffle (round, _) = round > 0 && round mod social_period = 0 in
        let ms (_, ns) = float_of_int ns *. 1e-6 in
        let loop_ns = List.fold_left (fun a (_, d) -> a + d) 0 durations in
        let setup_self = excl t0 tb in
        ( checks @ fold_check path ~rounds:(Some rounds),
          [ ("trace.wall_s", secs (Int64.to_int (Int64.sub t_end.at tb.at)));
            ("social.setup_s", secs setup_self);
            ( "social.round_ms_p50",
              median
                (List.map ms (List.filter (fun d -> not (is_reshuffle d)) durations))
            );
            ( "social.reshuffle_round_ms",
              median (List.map ms (List.filter is_reshuffle durations)) ) ]
          @ trace_layers ~path ~total:(t_start, t_stop) ~attributed_ns:(setup_self + loop_ns) )
  in
  {
    shape =
      [ ("n", I n); ("rounds", I rounds); ("users", I users);
        ("period", I social_period) ];
    setup_ns = Int64.to_int (Int64.sub tb.at t0.at);
    wall_ns = Int64.to_int (Int64.sub t_end.at tb.at);
    node_rounds = n * rounds;
    ops = r.total.issued;
    ops_failed = (if checks = [] then 0 else r.total.issued);
    checks;
    digest =
      digest
        (Workload.Social.table_lines r
        @ List.map string_of_int [ r.hop_msgs; r.max_group_load; r.total_bits ]);
    detail =
      [ ("classes", O (List.map class_json classes)); ("hop_msgs", I r.hop_msgs) ];
    layers;
    setup_again;
  }

(* ---------- hgraph-churn ---------- *)

(* Phase ends within one epoch, in this order: the [epoch/sampling] span,
   the last [reconfig/*] span of the last cycle (Algorithm 3), and the
   [epoch/reconfigure] span (after cycle validation and the BFS checks).
   [Round] events cover the sampling rounds; the two epoch spans carry the
   sampling and Algorithm-3 rounds. *)
type phases = {
  sampling : int;
  alg3 : int;
  validate : int;
  msgs : int;
  round_events : int;
  sampling_rounds : int;
  span_rounds : int;
}

let epoch_phases ~start ~stop evs =
  let inside = List.filter (fun (st, _) -> st.at >= start.at && st.at <= stop.at) evs in
  let last p =
    List.fold_left (fun acc (st, ev) -> if p ev then Some st else acc) None inside
  in
  let span p = function Simnet.Trace.Span { name; _ } -> p name | _ -> false in
  let sampled = Option.value (last (span (( = ) "epoch/sampling"))) ~default:start in
  let alg3 =
    Option.value ~default:sampled
      (last (span (String.starts_with ~prefix:"reconfig/")))
  in
  let validated =
    Option.value (last (span (( = ) "epoch/reconfigure"))) ~default:alg3
  in
  List.fold_left
    (fun acc (_, ev) ->
      match ev with
      | Simnet.Trace.Round { msgs; _ } ->
          { acc with msgs = acc.msgs + msgs; round_events = acc.round_events + 1 }
      | Simnet.Trace.Span { name = "epoch/sampling"; rounds; _ } ->
          { acc with sampling_rounds = acc.sampling_rounds + rounds;
            span_rounds = acc.span_rounds + rounds }
      | Simnet.Trace.Span { name = "epoch/reconfigure"; rounds; _ } ->
          { acc with span_rounds = acc.span_rounds + rounds }
      | _ -> acc)
    { sampling = excl start sampled; alg3 = excl sampled alg3;
      validate = excl alg3 validated; msgs = 0; round_events = 0;
      sampling_rounds = 0; span_rounds = 0 }
    inside

let run_churn ~smoke ~seed ~domains ~trace_file =
  let t_start = stamp () in
  let n = churn_n ~smoke in
  let trace =
    match trace_file with Some path -> timed_sink path | None -> Simnet.Trace.null
  in
  (* Leaves and joins balance, so every epoch starts at size n: set-up
     draws all plans up front.  Each joiner is introduced to a distinct
     staying member, so the sampler's provisioning (which grows with the
     most joiners any node delegates) is the same for every seed. *)
  let k = int_of_float (churn_frac *. float_of_int n) in
  let setup trace =
    let root = Prng.Stream.of_seed seed in
    let net_rng = Prng.Stream.split root and plan_rng = Prng.Stream.split root in
    let net = Core.Churn_network.create ~trace ~domains ~rng:net_rng ~n () in
    let created = stamp () in
    let plans =
      List.init churn_epochs (fun _ ->
          let leaves = Prng.Stream.sample_distinct plan_rng n ~k in
          let leaving = Array.make n false in
          Array.iter (fun p -> leaving.(p) <- true) leaves;
          let stayers =
            Array.of_list (List.filter (fun p -> not leaving.(p)) (List.init n Fun.id))
          in
          let picks = Prng.Stream.sample_distinct plan_rng (Array.length stayers) ~k in
          (leaves, Array.map (fun i -> stayers.(i)) picks))
    in
    (net, created, plans)
  in
  let t0 = stamp () in
  let net, t_created, plans = setup trace in
  let tb = stamp () in
  let epochs =
    List.map
      (fun (leaves, join_introducers) ->
        let start = stamp () in
        let r = Core.Churn_network.epoch net ~leaves ~join_introducers in
        (start, stamp (), r))
      plans
  in
  let t_end = stamp () in
  Simnet.Trace.close trace;
  let t_stop = stamp () in
  let epoch_checks (e, (_, _, (r : Core.Churn_network.epoch_report))) =
    let bad fmt = Printf.ksprintf (fun s -> [ Printf.sprintf "epoch %d: %s" e s ]) fmt in
    (if r.valid && r.connected then []
     else bad "valid=%b connected=%b (%s)" r.valid r.connected
            (Option.value r.failure ~default:"-"))
    @ (if r.n_after = r.n_before - r.left + r.joined then []
       else bad "n_after %d <> %d - %d + %d" r.n_after r.n_before r.left r.joined)
    @ if r.left = k && r.joined = k then []
      else bad "left %d joined %d, planned %d each" r.left r.joined k
  in
  let numbered = List.mapi (fun i e -> (i + 1, e)) epochs in
  let per_epoch = List.map epoch_checks numbered in
  let reports = List.map (fun (_, _, r) -> r) epochs in
  let total f = List.fold_left (fun a r -> a + f r) 0 reports in
  let total_rounds = total (fun r -> r.Core.Churn_network.rounds) in
  let checks = List.concat per_epoch in
  let checks, layers =
    match trace_file with
    | None -> (checks, [])
    | Some path ->
        let evs = List.rev !marks in
        let phases = List.map (fun (s, e, _) -> epoch_phases ~start:s ~stop:e evs) epochs in
        let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
        let epoch_ns = List.fold_left (fun a (s, e, _) -> a + excl s e) 0 epochs in
        let sampling = sum (fun p -> p.sampling) in
        let msgs = sum (fun p -> p.msgs) in
        let round_checks =
          (if sum (fun p -> p.round_events) = sum (fun p -> p.sampling_rounds) then []
           else [ "trace: round events <> sampling rounds" ])
          @
          if sum (fun p -> p.span_rounds) = total_rounds then []
          else [ "trace: phase span rounds <> epoch rounds" ]
        in
        let attributed =
          excl t0 t_created + sampling + sum (fun p -> p.alg3) + sum (fun p -> p.validate)
        in
        ( checks @ round_checks @ fold_check path ~rounds:None,
          [ ("trace.wall_s", secs (Int64.to_int (Int64.sub t_end.at tb.at)));
            ("churn.create_s", secs (excl t0 t_created));
            ("churn.epoch_s", secs epoch_ns);
            ("rapid_hgraph.sampling_s", secs sampling);
            ( "rapid_hgraph.underflows",
              float_of_int (total (fun r -> r.sampling_underflows)) );
            ("engine.msgs", float_of_int msgs);
            ("engine.msgs_per_s", ratio (float_of_int msgs) (secs sampling));
            ("reconfig.alg3_s", secs (sum (fun p -> p.alg3)));
            ("reconfig.bits", float_of_int (total (fun r -> r.reconfig_bits)));
            ("churn.validate_s", secs (sum (fun p -> p.validate))) ]
          @ trace_layers ~path ~total:(t_start, t_stop) ~attributed_ns:attributed )
  in
  let failed_epochs = List.length (List.filter (fun c -> c <> []) per_epoch) in
  {
    shape = [ ("n", I n); ("epochs", I churn_epochs); ("churn_frac", F churn_frac) ];
    setup_ns = Int64.to_int (Int64.sub tb.at t0.at);
    wall_ns = Int64.to_int (Int64.sub t_end.at tb.at);
    node_rounds = n * total_rounds;
    ops = churn_epochs;
    ops_failed =
      (* a failed trace check fails every epoch of the repetition *)
      (if checks = [] then 0 else if failed_epochs > 0 then failed_epochs else churn_epochs);
    checks;
    digest =
      digest
        (List.map
           (fun (r : Core.Churn_network.epoch_report) ->
             Printf.sprintf "%d %d %d %d %d %d %d %d %d %b %b %h" r.n_before
               r.n_after r.left r.joined r.rounds r.sampling_underflows
               r.max_chosen r.max_empty_segment r.reconfig_bits r.valid
               r.connected r.reachable_fraction)
           reports);
    detail = [ ("rounds", I total_rounds) ];
    layers;
    setup_again = (fun () -> ignore (setup Simnet.Trace.null));
  }

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and domains = ref 1 in
  let trace_file = ref "" and smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "S input seed");
      ("--domains", Arg.Set_int domains, "D worker domains");
      ("--trace-file", Arg.Set_string trace_file, "FILE traced run: binary trace path");
      ("--smoke", Arg.Set smoke, " run at the smoke scale (n = 256)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed S --domains D [--trace-file FILE] [--smoke]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "harness: unknown workload %S (%s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let smoke = !smoke and seed = Int64.of_int !seed and domains = max 1 !domains in
  let trace_file = if !trace_file = "" then None else Some !trace_file in
  let o =
    match w with
    | Dht_reshuffle | Dht_requests -> run_dht ~smoke ~seed ~domains ~trace_file w
    | Social_posts -> run_social ~smoke ~seed ~domains ~trace_file
    | Hgraph_churn -> run_churn ~smoke ~seed ~domains ~trace_file
  in
  Option.iter Sys.remove trace_file;
  let peak_rss_kb = peak_rss_kb () in
  (* Set up again, after the peak was read, while it stays cheap: short
     set-ups are the noisiest figure of a repetition.  Each repeat starts
     from a compacted heap, as the first set-up started from an empty one. *)
  let setups = ref [ o.setup_ns ] and spent = ref 0 in
  while List.length !setups < 64 && !spent + o.setup_ns < 500_000_000 do
    Gc.compact ();
    let t0 = clock () in
    (try o.setup_again () with Setup_done -> ());
    let d = since t0 in
    spent := !spent + d;
    setups := d :: !setups
  done;
  print_endline
    (to_json
       (O
          [ ("workload", S !workload);
            ("seed", S (Int64.to_string seed));
            ("smoke", Bool smoke);
            ("traced", Bool (trace_file <> None));
            ("domains", I domains);
            ("recommended_domains", I (Domain.recommended_domain_count ()));
            ("ocaml_version", S Sys.ocaml_version);
            ("shape", O o.shape);
            ("setup_s", F (median (List.map secs !setups)));
            ("setup_samples", A (List.rev_map (fun ns -> F (secs ns)) !setups));
            ("wall_s", F (secs o.wall_ns));
            ("node_rounds", I o.node_rounds);
            ("peak_rss_kb", I peak_rss_kb);
            ("ops", I o.ops);
            ("ops_failed", I o.ops_failed);
            ("checks", A (List.map (fun c -> S c) o.checks));
            ("digest", S o.digest);
            ("detail", O o.detail);
            ("layers", O (List.map (fun (k, v) -> (k, F v)) o.layers)) ]))

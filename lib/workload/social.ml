type config = { app : Apps.Social.config; base : Driver.config }

let config ?k ?mode ?period ?backend ?attack ?frac ?lateness ?staleness ?faults
    ?domains (app : Apps.Social.config) =
  (* the overlay sees the application as a spec over its topics: its key
     space and popularity rank the adversary's default targets *)
  let spec =
    Spec.make ~clients:app.users ~rounds:app.rounds ~keys:app.topics
      ~arrivals:(Spec.Open_loop { rate = app.rate })
      ~popularity:(Spec.Zipf app.zipf) ()
  in
  (* the session cycle's server side is the driver's coarse churn *)
  let churn =
    Option.map
      (fun (online, epoch) -> { Driver.frac = 1.0 -. online; epoch })
      app.session
  in
  (* the chord backend's internal lookup-retry policy gets the most
     patient class's budget; per-request retries are per class *)
  let retries =
    List.fold_left
      (fun a c -> max a (Apps.Social.budget c).retries)
      0 Apps.Social.classes
  in
  {
    app;
    base =
      Driver.config ?k ?mode ?period ?backend ?attack ?frac ?lateness
        ?staleness ?churn ?faults ~retries ?domains spec;
  }

type report = Driver.report = {
  config : Driver.config;
  n : int;
  classes : Driver.class_report list;
  total : Driver.class_report;
  hop_msgs : int;
  max_group_load : int;
  total_bits : int;
}

let payload_of (req : Apps.Social.request) = Decimal.pair 'u' req.user req.seq

let mix_to_string (m : Apps.Social.mix) =
  String.concat ","
    (List.map2
       (fun name w -> Printf.sprintf "%s=%s" name (Stats.Float_text.repr w))
       [ "feed"; "post"; "comment"; "vote"; "dm" ]
       [ m.feed; m.post; m.comment; m.vote; m.dm ])

(* One attempt serves the whole chain or nothing; a post's repost fan-out
   rides in the same chain.  The payload is built at the chain's first
   write ([""] until then), so a feed's lone probe never formats one. *)
let rec exec_chain (server : Driver.server) ~entry req ~payload ops ~service
    ~hops : Driver.attempt =
  match ops with
  | [] -> Served { service; hops }
  | op :: rest ->
      let payload =
        match op with
        | Apps.Social.Probe _ -> payload
        | Publish _ | Store _ ->
            if String.length payload = 0 then payload_of req else payload
      in
      let res =
        match op with
        | Apps.Social.Probe topic -> server.last_seq ~entry ~topic
        | Publish topic -> server.publish ~entry ~topic payload
        | Store key -> server.put ~entry key payload
      in
      let hops = hops + res.Backend_intf.hops in
      if res.ok then
        exec_chain server ~entry req ~payload rest
          ~service:(service + Apps.Social.base_ops op + res.hops + res.waits)
          ~hops
      else Attempt_failed { hops }

let exec server ~entry (req : Apps.Social.request) =
  exec_chain server ~entry req ~payload:"" req.ops ~service:0 ~hops:0

let source ~seed { app; _ } : Apps.Social.request Driver.source =
  let offline = Apps.Social.offline app ~seed in
  let per_class f = Array.of_list (List.map f Apps.Social.classes) in
  let budget f = per_class (fun c -> f (Apps.Social.budget c)) in
  {
    name = "social/run";
    fields =
      [
        ("users", Simnet.Trace.Int app.users);
        ("topics", Simnet.Trace.Int app.topics);
        ("rounds", Simnet.Trace.Int app.rounds);
        ("fanout", Simnet.Trace.Int app.fanout);
        ("rate", Simnet.Trace.Float app.rate);
        ("mix", Simnet.Trace.String (mix_to_string app.mix));
        ( "session",
          Simnet.Trace.String
            (match app.session with
            | None -> "-"
            | Some (online, epoch) ->
                Printf.sprintf "%s:%d" (Stats.Float_text.repr online) epoch) );
      ];
    classes = per_class Apps.Social.class_name;
    class_of =
      (fun req ->
        match req.cls with
        | Feed -> 0 | Post -> 1 | Comment -> 2 | Vote -> 3 | Dm -> 4);
    arrival = (fun req -> req.arrival);
    client = (fun req -> req.user);
    slo = budget (fun b -> b.slo);
    timeout = budget (fun b -> b.timeout);
    retries = budget (fun b -> b.retries);
    admit = Apps.Social.arrivals app ~seed ~offline;
    release = (fun _ ~at:_ -> ());
    exec;
    (* the session boundary: offline users already issue nothing
       ([arrivals] skips them); the driver has just churned the servers *)
    on_churn =
      (fun rt ~round ~epoch:e ~down ->
        let off_users =
          if e < Array.length offline then
            Array.fold_left (fun a o -> if o then a + 1 else a) 0 offline.(e)
          else 0
        in
        Simnet.Runtime.note rt ~name:"social/session"
          [
            ("round", Simnet.Trace.Int round);
            ("epoch", Simnet.Trace.Int e);
            ("offline_users", Simnet.Trace.Int off_users);
            ("down_servers", Simnet.Trace.Int down);
          ]);
    health = Some "social/health";
  }

let run ?trace ~seed ~n (cfg : config) =
  let backend : (module Backend_intf.S) =
    match cfg.base.backend with
    | Driver.Robust -> (module Backends.Robust)
    | Chord _ -> (module Backends.Chord_ring)
  in
  Driver.serve backend ?trace ~hot_keys:(Apps.Social.hot_keys cfg.app)
    ~who:"Workload.Social" ~seed ~n cfg.base (source ~seed cfg)

let table_lines = Driver.table_lines

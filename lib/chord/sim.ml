type config = {
  n : int;
  rounds : int;
  m : int;
  fingers : int;
  succs : int;
  period : int;
  keys : int;
  lookups : int;
  zipf : float;
  strategy : Adversary.strategy;
  frac : float;
  lateness : int;
  staleness : Simnet.Snapshots.staleness option;
  churn : (float * int) option;
  faults : Simnet.Faults.plan option;
  retries : int;
}

let config ?(rounds = 64) ?(m = -1) ?(fingers = -1) ?(succs = -1) ?(period = -1)
    ?(keys = 256) ?(lookups = 8) ?(zipf = 1.1) ?(strategy = Adversary.No_attack)
    ?(frac = 0.1) ?(lateness = -1) ?staleness ?churn ?faults ?(retries = 0) ~n
    () =
  if n < 2 then invalid_arg "Chord.Sim: n < 2";
  if rounds <= 0 then invalid_arg "Chord.Sim: rounds <= 0";
  if keys <= 0 then invalid_arg "Chord.Sim: keys <= 0";
  if lookups < 0 then invalid_arg "Chord.Sim: negative lookups";
  if retries < 0 then invalid_arg "Chord.Sim: negative retries";
  (match churn with
  | None -> ()
  | Some (frac, epoch) ->
      if frac < 0.0 || frac >= 1.0 || not (Float.is_finite frac) then
        invalid_arg "Chord.Sim: churn frac outside [0, 1)";
      if epoch <= 0 then invalid_arg "Chord.Sim: churn epoch <= 0");
  { n; rounds; m; fingers; succs; period; keys; lookups; zipf; strategy; frac;
    lateness; staleness; churn; faults; retries }

type report = {
  config : config;
  m : int;
  fingers : int;
  succs : int;
  period : int;
  issued : int;
  ok : int;
  lookup_timeouts : int;
  max_hops : int;
  hist : Stats.Log_histogram.t;
  lookup_msgs : int;
  maint : Net.stats;
  total_bits : int;
  succ_ok : float;
  connected : bool;
  members : int;
}

let goodput r =
  if r.issued = 0 then 1.0 else float_of_int r.ok /. float_of_int r.issued

let percentile r p =
  if Stats.Log_histogram.total r.hist = 0 then 0
  else Stats.Log_histogram.percentile r.hist p

let run ?(trace = Simnet.Trace.null) ~seed (cfg : config) =
  (* fixed split order, mirroring Workload.Driver *)
  let root = Prng.Stream.of_seed seed in
  let ring_rng = Prng.Stream.split root in
  let service_rng = Prng.Stream.split root in
  let churn_rng = Prng.Stream.split root in
  let attack_rng = Prng.Stream.split root in
  let zipf =
    if cfg.zipf > 0.0 then Some (Prng.Dist.zipf_table ~n:cfg.keys ~s:cfg.zipf)
    else None
  in
  let n = cfg.n in
  let ring =
    Ring.create
      ?m:(if cfg.m > 0 then Some cfg.m else None)
      ?fingers:(if cfg.fingers > 0 then Some cfg.fingers else None)
      ?succs:(if cfg.succs > 0 then Some cfg.succs else None)
      ~rng:ring_rng ~n ()
  in
  Ring.reset_ideal ring;
  let m = Ring.m ring in
  let period = if cfg.period > 0 then cfg.period else 8 in
  let lateness = if cfg.lateness >= 0 then cfg.lateness else period in
  (* zipf popularity is monotone decreasing in the key index, so the heat
     ranking is the identity (uniform ties break the same way) *)
  let hot_ids = Array.init cfg.keys (fun k -> Ring.key_id ring k) in
  let adv =
    Adversary.create ~lateness ?staleness:cfg.staleness ~strategy:cfg.strategy
      ~frac:cfg.frac ~rng:attack_rng ~ring ~hot_ids ()
  in
  let rt =
    Simnet.Runtime.create ~trace ?faults:cfg.faults
      ~supports:[ `Drop; `Duplicate; `Delay; `Crash; `Recover ]
      ~who:"Chord.Sim" ~n ()
  in
  let retry =
    if cfg.retries = 0 then Core.Retry.fixed
    else Core.Retry.make ~max_retries:cfg.retries ()
  in
  let net = Net.create ring ~rt ~period ~retry () in
  let blocked = Array.make n false in
  let churn_down = Array.make n false in
  let lkp_bits =
    Simnet.Msg_size.ids_msg ~id_bits:m ~count:1 + 64
  and maint_bits =
    Simnet.Msg_size.ids_msg ~id_bits:m ~count:(Ring.r ring)
  in
  let issued = ref 0 and ok = ref 0 and lookup_timeouts = ref 0 in
  let max_hops = ref 0 and lookup_msgs = ref 0 and total_bits = ref 0 in
  let hist = Stats.Log_histogram.create () in
  let avail v = Ring.is_alive ring v && not blocked.(v) in
  Simnet.Runtime.note rt ~name:"chord/run"
    [
      ("n", Simnet.Trace.Int n);
      ("m", Simnet.Trace.Int m);
      ("fingers", Simnet.Trace.Int (Ring.nf ring));
      ("succs", Simnet.Trace.Int (Ring.r ring));
      ("period", Simnet.Trace.Int period);
      ("rounds", Simnet.Trace.Int cfg.rounds);
      ("attack", Simnet.Trace.String (Adversary.strategy_to_string cfg.strategy));
    ];
  for r = 0 to cfg.rounds - 1 do
    (* 1. the adversary's delayed observation *)
    Adversary.observe adv;
    (* 2. churn epoch boundary: redraw the down set; returning nodes
       re-join through a live introducer *)
    (match cfg.churn with
    | Some (frac, epoch) when r mod epoch = 0 ->
        let was_down = Array.copy churn_down in
        Array.fill churn_down 0 n false;
        let down = int_of_float (frac *. float_of_int n) in
        if down > 0 then begin
          let picks = Prng.Stream.sample_distinct churn_rng n ~k:down in
          Array.iter (fun v -> churn_down.(v) <- true) picks
        end;
        for v = 0 to n - 1 do
          Ring.set_alive ring v (not churn_down.(v))
        done;
        let join_avail v =
          Ring.is_alive ring v && not (Simnet.Runtime.crashed rt v)
        in
        for v = 0 to n - 1 do
          if was_down.(v) && not churn_down.(v) then
            match Ring.pick churn_rng ~ok:(fun u -> u <> v && join_avail u) n with
            | Some via -> ignore (Net.join net ~avail:join_avail ~via v)
            | None -> ()
        done;
        Simnet.Runtime.adversary rt ~kind:"churn"
          [ ("round", Simnet.Trace.Int r); ("down", Simnet.Trace.Int down) ]
    | _ -> ());
    (* 3. scheduled crash / recover transitions *)
    Simnet.Runtime.tick rt;
    (* 4. this round's blocked set: churn + crashes + adversary budget *)
    for v = 0 to n - 1 do
      blocked.(v) <- churn_down.(v) || Simnet.Runtime.crashed rt v
    done;
    Adversary.mark adv ~into:blocked;
    let blocked_count =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked
    in
    (* 5. one staggered maintenance slice *)
    let maint_before = (Net.stats net).Net.msgs in
    Net.tick net ~avail;
    let maint_round = (Net.stats net).Net.msgs - maint_before in
    (* 6. probe lookups *)
    let round_lkp = ref 0 in
    for i = 0 to cfg.lookups - 1 do
      incr issued;
      let key =
        match zipf with
        | Some table -> Prng.Dist.zipf_draw service_rng table - 1
        | None -> Prng.Stream.int service_rng cfg.keys
      in
      let kid = Ring.key_id ring key in
      let status, latency, hops =
        match Ring.pick service_rng ~ok:avail n with
        | None -> ("failed", 1, 0)
        | Some from ->
            let o =
              Lookup.find ring ~rt ~avail
                ~accept:(fun v -> Ring.holds ring v ~key_id:kid)
                ~from ~id:kid ()
            in
            round_lkp := !round_lkp + o.Lookup.msgs;
            lookup_timeouts := !lookup_timeouts + o.Lookup.timeouts;
            let latency = 1 + o.Lookup.hops + o.Lookup.timeouts in
            if o.Lookup.ok then begin
              incr ok;
              if o.Lookup.hops > !max_hops then max_hops := o.Lookup.hops;
              Stats.Log_histogram.add hist latency;
              ("ok", latency, o.Lookup.hops)
            end
            else ("failed", latency, o.Lookup.hops)
      in
      Simnet.Runtime.request rt ~op:"lookup" ~round:r ~client:i ~latency ~hops
        ~status
    done;
    lookup_msgs := !lookup_msgs + !round_lkp;
    let round_bits = (!round_lkp * lkp_bits) + (maint_round * maint_bits) in
    total_bits := !total_bits + round_bits;
    Simnet.Runtime.emit_round rt
      ~msgs:(!round_lkp + maint_round)
      ~bits:round_bits ~max_node_bits:0 ~max_node_msgs:0 ~blocked:blocked_count;
    Simnet.Runtime.advance rt ~rounds:1
  done;
  let succ_ok = Ring.succ_ok_fraction ring in
  let connected = Ring.ring_connected ring in
  let members = Ring.alive_count ring in
  Simnet.Runtime.note rt ~name:"chord/health"
    [
      ("succ_ok", Simnet.Trace.Float succ_ok);
      ("connected", Simnet.Trace.Bool connected);
      ("members", Simnet.Trace.Int members);
    ];
  {
    config = cfg;
    m;
    fingers = Ring.nf ring;
    succs = Ring.r ring;
    period;
    issued = !issued;
    ok = !ok;
    lookup_timeouts = !lookup_timeouts;
    max_hops = !max_hops;
    hist;
    lookup_msgs = !lookup_msgs;
    maint = Net.stats net;
    total_bits = !total_bits;
    succ_ok;
    connected;
    members;
  }

let summary_lines r =
  let st = r.maint in
  [
    Printf.sprintf "chord: n=%d m=%d fingers=%d succs=%d period=%d rounds=%d"
      r.config.n r.m r.fingers r.succs r.period r.config.rounds;
    Printf.sprintf
      "lookups: issued=%d ok=%d goodput=%.3f p50=%d p99=%d max-hops=%d timeouts=%d"
      r.issued r.ok (goodput r) (percentile r 0.50) (percentile r 0.99)
      r.max_hops r.lookup_timeouts;
    Printf.sprintf
      "maintenance: stabilize=%d adoptions=%d fallbacks=%d isolated=%d \
       finger-fixes=%d pred-clears=%d joins=%d join-failures=%d"
      st.Net.stabilize_runs st.Net.succ_adoptions st.Net.succ_fallbacks
      st.Net.isolated st.Net.finger_fixes st.Net.pred_clears st.Net.joins
      st.Net.join_failures;
    Printf.sprintf "traffic: lookup-msgs=%d maint-msgs=%d total-bits=%d"
      r.lookup_msgs st.Net.msgs r.total_bits;
    Printf.sprintf "health: succ-ok=%.3f connected=%b members=%d" r.succ_ok
      r.connected r.members;
  ]

(* The two built-in {!Backend_intf.S} implementations: the paper's
   reconfigurable supernode DHT and the Chord ring.  Both reproduce the
   pre-refactor hard-coded driver paths draw-for-draw: the same streams
   are consumed in the same order, the same messages are charged, and the
   same trace fields are emitted, so fault-free same-seed traces are
   byte-identical to the dispatch they replaced. *)

open Backend_intf

(* The publish chain both backends run: counter read, payload write under
   the next sequence number, counter write.  The counter goes last, so a
   retried attempt re-reads the same value and rewrites (topic, seq) with
   the same payload.  A full topic fails the chain after the read, before
   any write.  [last] gives the counter value behind the read; [commit]
   sees the sequence number of a completed chain. *)
let publish_chain ~read ~write ~last ~commit ~topic payload =
  let failed hops = { ok = false; hops; waits = 0; value = None } in
  let ckey = Apps.Pubsub.counter_key topic in
  let c = read ckey in
  let slot = if c.ok then Apps.Pubsub.next_slot ~topic (last c) else None in
  match slot with
  | None -> failed c.hops
  | Some (seq, pkey) ->
      let w = write pkey payload in
      if not w.ok then failed (c.hops + w.hops)
      else
        let counter = Decimal.of_int seq in
        let u = write ckey counter in
        let hops = c.hops + w.hops + u.hops in
        if not u.ok then failed hops
        else begin
          commit seq;
          { ok = true; hops; waits = c.waits + w.waits + u.waits;
            value = Some counter }
        end

(* ---------- the reconfigurable supernode DHT ---------- *)

module Robust : S = struct
  type t = {
    ctx : ctx;
    dht : Apps.Robust_dht.t;
    adv : Attack.t;
    load : int array;  (* per-supernode congestion within the round *)
    load_arg : int array option;  (* [Some load], boxed once *)
    hop_results : op_result array;  (* .(h): a result of h hops, no value *)
    mutable view : Apps.Robust_dht.view;  (* this round's occupancy *)
    per_msg_bits : int;
    mutable round_msgs : int;
    mutable max_group_load : int;
  }

  let create ctx =
    let dht = Apps.Robust_dht.create ~k:ctx.k ~rng:ctx.rng ~n:ctx.n () in
    let adv =
      Attack.create ~lateness:ctx.lateness ?staleness:ctx.staleness
        ?hot_keys:ctx.hot_keys ~strategy:ctx.attack ~frac:ctx.frac
        ~rng:ctx.attack_rng ~dht ~spec:ctx.spec ()
    in
    let sns = Apps.Robust_dht.supernode_count dht in
    let per_msg_bits =
      Simnet.Msg_size.ids_msg ~id_bits:(Simnet.Msg_size.id_bits ctx.n) ~count:1
      + 64
    in
    let load = Array.make sns 0 in
    let hop_results =
      Array.init (Apps.Robust_dht.dimension dht + 1) (fun hops ->
          { ok = true; hops; waits = 0; value = None })
    in
    { ctx; dht; adv; load; load_arg = Some load; hop_results;
      view = Apps.Robust_dht.occupancy dht ~blocked:ctx.blocked; per_msg_bits;
      round_msgs = 0; max_group_load = 0 }

  let note_fields _ = []

  let reconfigure t ~round =
    if t.ctx.mode = Reconfig && round > 0 && round mod t.ctx.period = 0 then
      Apps.Robust_dht.reshuffle t.dht

  let observe t = Attack.observe t.adv
  let churn _ ~rng:_ ~was_down:_ ~down:_ = ()
  let mark_attack t ~into = Attack.mark t.adv ~into

  (* The driver fixed this round's blocked set in [mark_attack], after
     this round's reshuffle, so one view serves all of the round's
     requests. *)
  let begin_round t =
    t.round_msgs <- 0;
    Array.fill t.load 0 (Array.length t.load) 0;
    t.view <- Apps.Robust_dht.occupancy t.dht ~blocked:t.ctx.blocked

  let maintain _ = ()

  let entry t ~rng =
    Apps.Robust_dht.random_entry_with t.dht ~rng ~blocked:t.ctx.blocked

  let failed = { ok = false; hops = 0; waits = 0; value = None }

  (* One DHT operation; accounts hop messages and per-group congestion.
     A result without a value is a shared record (a failed one has 0
     hops); only a read that returns a value builds one. *)
  let sub_op t ~entry op =
    let r =
      Apps.Robust_dht.execute_at t.dht ~view:t.view ?load:t.load_arg ~entry op
    in
    let hops = r.Apps.Robust_dht.hops in
    t.round_msgs <- t.round_msgs + 1 + hops;
    match r.Apps.Robust_dht.value with
    | None -> if r.Apps.Robust_dht.ok then t.hop_results.(hops) else failed
    | value -> { ok = r.Apps.Robust_dht.ok; hops; waits = 0; value }

  let get t ~entry key = sub_op t ~entry (Apps.Robust_dht.Read key)
  let put t ~entry key payload = sub_op t ~entry (Apps.Robust_dht.Write (key, payload))

  let publish t ~entry ~topic payload =
    publish_chain ~read:(get t ~entry) ~write:(put t ~entry)
      ~last:(fun c ->
        Option.value (Option.bind c.value int_of_string_opt) ~default:0)
      ~commit:ignore ~topic payload

  let last_seq t ~entry ~topic =
    get t ~entry (Apps.Pubsub.counter_key topic)

  let emit_round t =
    let round_max_load = Array.fold_left max 0 t.load in
    if round_max_load > t.max_group_load then t.max_group_load <- round_max_load;
    {
      req_msgs = t.round_msgs;
      msgs = t.round_msgs;
      bits = t.round_msgs * t.per_msg_bits;
      max_node_bits = round_max_load * t.per_msg_bits;
      max_node_msgs = round_max_load;
    }

  let health t =
    [
      ("backend", Simnet.Trace.String "robust");
      ( "supernodes",
        Simnet.Trace.Int (Apps.Robust_dht.supernode_count t.dht) );
      ("max_group_load", Simnet.Trace.Int t.max_group_load);
    ]

  let max_group_load t = t.max_group_load
end

(* ---------- the Chord ring ---------- *)

(* The same request plane bound onto iterative Chord lookups: the
   reconfiguration step becomes one staggered maintenance slice per round
   ([Static] disables it — the no-maintenance ablation), churn returners
   re-join through a live introducer, and a request succeeds when its
   lookup reaches a true replica holder ({!Chord.Ring.holds}) of the key —
   so stale routing state costs real hops, timeouts and failures.
   Messages are charged per contact leg (iterative lookups pay request and
   reply), maintenance traffic carries whole successor lists. *)
module Chord_ring : S = struct
  type t = {
    ctx : ctx;
    ring : Chord.Ring.t;
    net : Chord.Net.t;
    adv : Chord.Adversary.t;
    maint_period : int;
    lkp_bits : int;
    maint_bits : int;
    (* publish sequence counters (the robust backend stores these in the
       DHT; here replica placement is checked against the oracle, so only
       the counter value needs tracking — still written last, so retried
       attempts reuse the same (topic, seq)) *)
    counters : (int, int) Hashtbl.t;
    mutable round_msgs : int;
    mutable maint_before : int;
    mutable maint_round : int;
  }

  let create ctx =
    let ring =
      Chord.Ring.create ?fingers:ctx.chord.fingers ?succs:ctx.chord.succs
        ~rng:ctx.rng ~n:ctx.n ()
    in
    Chord.Ring.reset_ideal ring;
    let m = Chord.Ring.m ring in
    let maint_period = Option.value ctx.chord.period ~default:ctx.period in
    (* zipf popularity is monotone decreasing in the key index, so the
       hottest-first ranking is the identity (uniform ties break the same);
       composite applications pass their own hottest-first key list *)
    let hot_ids =
      match ctx.hot_keys with
      | Some pairs -> Array.map (fun (k, _) -> Chord.Ring.key_id ring k) pairs
      | None ->
          Array.init ctx.spec.Spec.keys (fun k -> Chord.Ring.key_id ring k)
    in
    let strategy =
      match ctx.attack with
      | Attack.No_attack -> Chord.Adversary.No_attack
      | Attack.Random_blocking -> Chord.Adversary.Random_blocking
      | Attack.Group_kill -> Chord.Adversary.Succ_kill
    in
    let adv =
      Chord.Adversary.create ~lateness:ctx.lateness ?staleness:ctx.staleness
        ~strategy ~frac:ctx.frac ~rng:ctx.attack_rng ~ring ~hot_ids ()
    in
    let retry =
      if ctx.retries = 0 then Core.Retry.fixed
      else Core.Retry.make ~max_retries:ctx.retries ()
    in
    let net = Chord.Net.create ring ~rt:ctx.rt ~period:maint_period ~retry () in
    {
      ctx;
      ring;
      net;
      adv;
      maint_period;
      lkp_bits = Simnet.Msg_size.ids_msg ~id_bits:m ~count:1 + 64;
      maint_bits = Simnet.Msg_size.ids_msg ~id_bits:m ~count:(Chord.Ring.r ring);
      counters = Hashtbl.create 64;
      round_msgs = 0;
      maint_before = 0;
      maint_round = 0;
    }

  let avail t v = Chord.Ring.is_alive t.ring v && not t.ctx.blocked.(v)

  let note_fields t =
    [
      ("backend", Simnet.Trace.String "chord");
      ("m", Simnet.Trace.Int (Chord.Ring.m t.ring));
      ("fingers", Simnet.Trace.Int (Chord.Ring.nf t.ring));
      ("succs", Simnet.Trace.Int (Chord.Ring.r t.ring));
      ("period", Simnet.Trace.Int t.maint_period);
    ]

  let reconfigure _ ~round:_ = ()
  let observe t = Chord.Adversary.observe t.adv

  let churn t ~rng ~was_down ~down =
    let n = t.ctx.n in
    for v = 0 to n - 1 do
      Chord.Ring.set_alive t.ring v (not down.(v))
    done;
    let join_avail v =
      Chord.Ring.is_alive t.ring v && not (Simnet.Runtime.crashed t.ctx.rt v)
    in
    for v = 0 to n - 1 do
      if was_down.(v) && not down.(v) then
        match
          Chord.Ring.pick rng ~ok:(fun u -> u <> v && join_avail u) n
        with
        | Some via -> ignore (Chord.Net.join t.net ~avail:join_avail ~via v)
        | None -> ()
    done

  let mark_attack t ~into = Chord.Adversary.mark t.adv ~into

  let begin_round t =
    t.round_msgs <- 0;
    t.maint_before <- (Chord.Net.stats t.net).Chord.Net.msgs

  let maintain t =
    (* one staggered maintenance slice — Chord's analogue of the
       reshuffle; [Static] is the no-maintenance ablation *)
    if t.ctx.mode = Reconfig then Chord.Net.tick t.net ~avail:(avail t);
    t.maint_round <- (Chord.Net.stats t.net).Chord.Net.msgs - t.maint_before

  let entry t ~rng = Chord.Ring.pick rng ~ok:(avail t) t.ctx.n

  (* one iterative lookup; a replica holder must accept *)
  let lookup t ~entry key =
    let kid = Chord.Ring.key_id t.ring key in
    let o =
      Chord.Lookup.find t.ring ~rt:t.ctx.rt ~avail:(avail t)
        ~accept:(fun v -> Chord.Ring.holds t.ring v ~key_id:kid)
        ~from:entry ~id:kid ()
    in
    t.round_msgs <- t.round_msgs + o.Chord.Lookup.msgs;
    o

  let ok_of_lookup ?value (o : Chord.Lookup.outcome) =
    { ok = o.Chord.Lookup.ok; hops = o.Chord.Lookup.hops;
      waits = o.Chord.Lookup.timeouts;
      value = (if o.Chord.Lookup.ok then value else None) }

  let get t ~entry key = ok_of_lookup (lookup t ~entry key)
  let put t ~entry key _payload = ok_of_lookup (lookup t ~entry key)

  let publish t ~entry ~topic payload =
    publish_chain ~read:(get t ~entry) ~write:(put t ~entry)
      ~last:(fun _ ->
        Option.value (Hashtbl.find_opt t.counters topic) ~default:0)
      ~commit:(Hashtbl.replace t.counters topic) ~topic payload

  let last_seq t ~entry ~topic =
    let value =
      Some (string_of_int (Option.value (Hashtbl.find_opt t.counters topic) ~default:0))
    in
    ok_of_lookup ?value (lookup t ~entry (Apps.Pubsub.counter_key topic))

  let emit_round t =
    let bits = (t.round_msgs * t.lkp_bits) + (t.maint_round * t.maint_bits) in
    {
      req_msgs = t.round_msgs;
      msgs = t.round_msgs + t.maint_round;
      bits;
      max_node_bits = 0;
      max_node_msgs = 0;
    }

  let health t =
    [
      ("backend", Simnet.Trace.String "chord");
      ("succ_ok", Simnet.Trace.Float (Chord.Ring.succ_ok_fraction t.ring));
      ("connected", Simnet.Trace.Bool (Chord.Ring.ring_connected t.ring));
    ]

  let max_group_load _ = 0
end

module Hgraph = Topology.Hgraph

let src = Logs.Src.create "overlay.churn" ~doc:"Churn-resistant network events"

module Log = (val Logs.src_log src : Logs.LOG)

type sampler = Rapid | Plain_walks

type t = {
  rng : Prng.Stream.t;
  sampler : sampler;
  (* Rounds, faults, losses, health and trace emission all live here: the
     reply channel of Algorithm 3 is rolled through [Runtime.leg] (via
     [Runtime.link_drop]), and crash victims become forced leaves at the
     next epoch boundary. *)
  runtime : Simnet.Runtime.t;
  retry : Retry.policy;
  mutable graph : Hgraph.t;
  mutable ids : int array;
  mutable next_id : int;
}

type epoch_report = {
  n_before : int;
  n_after : int;
  joined : int;
  left : int;
  rounds : int;
  sampling_underflows : int;
  sampling_retries : int;
  sampling_escalations : int;
  sample_shortfall : int;
  max_joiners_per_node : int;
  max_chosen : int;
  max_empty_segment : int;
  max_node_round_bits : int;
  reconfig_bits : int;
  reply_retries : int;
  stale_pointers : int;
  valid : bool;
  connected : bool;
  reachable_fraction : float;
  failure : string option;
}

let create ?(d = 8) ?(sampler = Rapid) ?(trace = Simnet.Trace.null) ?faults
    ?(retry = Retry.fixed) ?domains:_ ~rng ~n () =
  let graph = Hgraph.random (Prng.Stream.split rng) ~n ~d in
  (* Reorder is vacuous on single-reply legs, and a recovered node cannot
     rejoin a network it was forced to leave — reject both rather than
     silently ignoring them. *)
  let runtime =
    Simnet.Runtime.create ~trace ?faults
      ~supports:[ `Drop; `Duplicate; `Delay; `Crash ]
      ~who:"Churn_network" ~n ()
  in
  {
    rng;
    sampler;
    runtime;
    retry;
    graph;
    ids = Array.init n (fun i -> i);
    next_id = n;
  }

let size t = Hgraph.n t.graph
let graph t = t.graph
let ids t = Array.copy t.ids

(* Resolve introduction chains: a joiner introduced to another joiner
   inherits that joiner's (transitively resolved) member delegate. *)
let resolve_delegates ~n ~join_introducers =
  let k = Array.length join_introducers in
  let resolved = Array.make k (-1) in
  let rec resolve i seen =
    if resolved.(i) >= 0 then resolved.(i)
    else
      match join_introducers.(i) with
      | `Member p ->
          if p < 0 || p >= n then
            invalid_arg "Churn_network: bad introducer position";
          resolved.(i) <- p;
          p
      | `Joiner j ->
          if j < 0 || j >= k then
            invalid_arg "Churn_network: bad joiner reference";
          if List.mem j seen then
            invalid_arg "Churn_network: cyclic introduction chain";
          let p = resolve j (j :: seen) in
          resolved.(i) <- p;
          p
  in
  Array.init k (fun i -> resolve i [ i ])

let run_one_epoch t ~leaves ~join_introducers =
  let rt = t.runtime in
  let trace = Simnet.Runtime.trace rt in
  let n = size t in
  let cycles = Hgraph.cycles t.graph in
  let leaving = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Churn_network.epoch: bad leave position";
      leaving.(p) <- true)
    leaves;
  (* Crash-stop at epoch granularity: a node crashed by the fault plan is
     forced to leave at the next epoch boundary (victims are positions in
     the current namespace; a victim index past the current size hits
     nobody). *)
  Simnet.Runtime.tick rt;
  for p = 0 to n - 1 do
    if Simnet.Runtime.crashed rt p then leaving.(p) <- true
  done;
  let left = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 leaving in
  let joined = Array.length join_introducers in
  let stayers = n - left in
  let m = stayers + joined in
  if m < 3 then invalid_arg "Churn_network.epoch: surviving network too small";
  (* Labels in the new namespace: stayers first (position order), joiners
     after.  The labeling itself carries no randomness; uniformity of the
     new topology comes from Algorithm 3. *)
  let out_label = Array.make n (-1) in
  let next = ref 0 in
  for p = 0 to n - 1 do
    if not leaving.(p) then begin
      out_label.(p) <- !next;
      incr next
    end
  done;
  let joiners_of = Array.make n [] in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then
        invalid_arg "Churn_network.epoch: bad introducer position";
      joiners_of.(p) <- !next :: joiners_of.(p);
      incr next)
    join_introducers;
  let joiner_labels = Array.map Array.of_list joiners_of in
  let max_joiners =
    Array.fold_left (fun acc a -> max acc (Array.length a)) 0 joiner_labels
  in
  (* Provision the sampling primitive: every node needs, per cycle, one
     sample for itself plus one per delegated joiner ("polylogarithmically
     many parallel instances" in the paper's terms). *)
  let needed_per_node = cycles * (1 + max_joiners) in
  let sampling =
    match t.sampler with
    | Rapid ->
        let logn = Float.max 1.0 (Params.log2f (float_of_int n)) in
        let c = Float.max 2.0 (float_of_int needed_per_node /. logn +. 1.0) in
        Rapid_hgraph.run ~c ~trace ~retry:t.retry
          ~rng:(Prng.Stream.split t.rng) t.graph
    | Plain_walks ->
        (* Ablation A1: same pipeline, but the Phase-1 samples come from
           plain token walks, costing Theta(log n) rounds per epoch. *)
        Rapid_hgraph.run_plain ~trace ~k:(needed_per_node + 2)
          ~rng:(Prng.Stream.split t.rng) t.graph
  in
  Simnet.Runtime.span rt ~name:"epoch/sampling"
    ~rounds:sampling.Sampling_result.rounds
    [
      ("underflows", Simnet.Trace.Int sampling.Sampling_result.underflows);
      ( "max_node_round_bits",
        Simnet.Trace.Int sampling.Sampling_result.max_round_node_bits );
    ];
  let cursors = Array.make n 0 in
  let shortfall = ref 0 in
  let take_sample v =
    let pool = sampling.Sampling_result.samples.(v) in
    if cursors.(v) < Array.length pool then begin
      let s = pool.(cursors.(v)) in
      cursors.(v) <- cursors.(v) + 1;
      s
    end
    else begin
      incr shortfall;
      Prng.Stream.int t.rng n
    end
  in
  (* Reconfigure every Hamilton cycle independently (they run in parallel;
     the epoch costs the slowest one). *)
  let reconf_rounds = ref 0 in
  let max_chosen = ref 0 and max_empty = ref 0 in
  let reconfig_bits = ref 0 in
  let reply_retries = ref 0 and stale_pointers = ref 0 in
  let failure = ref None in
  let fail reason = if !failure = None then failure := Some reason in
  let valid = ref true in
  let new_cycles =
    Array.init cycles (fun ci ->
        match
          Reconfig.reconfigure ~trace ?drop:(Simnet.Runtime.link_drop rt)
            ~max_retries:t.retry.Retry.max_retries ~rng:t.rng
            ~succ:(Hgraph.succ_array t.graph ~cycle:ci)
            ~out_label ~joiner_labels ~take_sample ~m ()
        with
        | Error f ->
            valid := false;
            (match f with
            | Reconfig.Replies_lost r ->
                stale_pointers := !stale_pointers + r.stalled;
                reply_retries := !reply_retries + r.retries
            | Reconfig.No_active_nodes -> ());
            fail (Reconfig.describe_failure f);
            [||]
        | Ok (new_succ, stats) ->
            if stats.Reconfig.rounds > !reconf_rounds then
              reconf_rounds := stats.Reconfig.rounds;
            if stats.Reconfig.max_chosen > !max_chosen then
              max_chosen := stats.Reconfig.max_chosen;
            if stats.Reconfig.max_empty_segment > !max_empty then
              max_empty := stats.Reconfig.max_empty_segment;
            reconfig_bits := !reconfig_bits + stats.Reconfig.work_bits;
            reply_retries := !reply_retries + stats.Reconfig.reply_retries;
            new_succ)
  in
  let valid, connected =
    if not !valid then (false, false)
    else
      match Simnet.Runtime.validate_cycles rt ~m new_cycles with
      | Error v ->
          (* A violating cycle is never installed: the old graph stands and
             the epoch reports the typed violation. *)
          fail (Simnet.Invariants.describe v);
          (false, false)
      | Ok () -> (
          match Hgraph.of_cycles new_cycles with
          | exception Invalid_argument _ ->
              fail "Hgraph.of_cycles rejected the reconfigured cycles";
              (false, false)
          | new_graph ->
              (* of_cycles re-verifies each successor array is a Hamilton
                 cycle over exactly the m new nodes; the union of Hamilton
                 cycles is connected by construction, but verify with BFS at
                 small n as a belt-and-braces end-to-end check. *)
              let connected =
                m > 8192
                || Topology.Bfs.is_connected (Hgraph.to_graph new_graph)
              in
              let new_ids = Array.make m 0 in
              for p = 0 to n - 1 do
                if out_label.(p) >= 0 then new_ids.(out_label.(p)) <- t.ids.(p)
              done;
              Array.iter
                (Array.iter (fun label ->
                     new_ids.(label) <- t.next_id;
                     t.next_id <- t.next_id + 1))
                joiner_labels;
              t.graph <- new_graph;
              t.ids <- new_ids;
              (true, connected))
  in
  (* Epoch health: fraction of the standing topology (new on success, old on
     a failed epoch) reachable from node 0. *)
  let reachable_fraction =
    let g = Hgraph.to_graph t.graph in
    let health =
      Simnet.Runtime.health rt ~n:(Hgraph.n t.graph)
        ~neighbors:(Topology.Graph.neighbors g)
    in
    health.Simnet.Runtime.reachable_fraction
  in
  Log.debug (fun k ->
      k "epoch: n %d -> %d (-%d +%d), %d+%d rounds, congestion %d, segment %d, valid %b"
        n m left joined sampling.Sampling_result.rounds !reconf_rounds
        !max_chosen !max_empty valid);
  Simnet.Runtime.span rt ~name:"epoch/reconfigure" ~rounds:!reconf_rounds
    [
      ("cycles", Simnet.Trace.Int cycles);
      ("max_chosen", Simnet.Trace.Int !max_chosen);
      ("max_empty_segment", Simnet.Trace.Int !max_empty);
      ("reconfig_bits", Simnet.Trace.Int !reconfig_bits);
    ];
  Simnet.Runtime.note rt ~name:"churn/epoch"
    [
      ("n_before", Simnet.Trace.Int n);
      ("n_after", Simnet.Trace.Int (if valid then m else n));
      ("left", Simnet.Trace.Int left);
      ("joined", Simnet.Trace.Int joined);
      ("valid", Simnet.Trace.Bool valid);
      ("connected", Simnet.Trace.Bool connected);
      ("retries", Simnet.Trace.Int sampling.Sampling_result.retries);
      ("escalations", Simnet.Trace.Int sampling.Sampling_result.escalations);
      ("reply_retries", Simnet.Trace.Int !reply_retries);
      ("stale_pointers", Simnet.Trace.Int !stale_pointers);
      ("reachable_fraction", Simnet.Trace.Float reachable_fraction);
    ];
  if valid then Simnet.Runtime.resize rt ~n:m;
  {
    n_before = n;
    n_after = (if valid then m else n);
    joined;
    left;
    rounds = sampling.Sampling_result.rounds + !reconf_rounds;
    sampling_underflows = sampling.Sampling_result.underflows;
    sampling_retries = sampling.Sampling_result.retries;
    sampling_escalations = sampling.Sampling_result.escalations;
    sample_shortfall = !shortfall;
    max_joiners_per_node = max_joiners;
    max_chosen = !max_chosen;
    max_empty_segment = !max_empty;
    max_node_round_bits = sampling.Sampling_result.max_round_node_bits;
    reconfig_bits = !reconfig_bits;
    reply_retries = !reply_retries;
    stale_pointers = !stale_pointers;
    valid;
    connected;
    reachable_fraction;
    failure = !failure;
  }

let epoch t ~leaves ~join_introducers =
  let ep =
    Simnet.Runtime.run_epoch t.runtime (fun _rt ->
        let r = run_one_epoch t ~leaves ~join_introducers in
        (r, r.rounds))
  in
  ep.Simnet.Runtime.result

let epoch_with_delegation t ~leaves ~join_introducers =
  let delegates = resolve_delegates ~n:(size t) ~join_introducers in
  epoch t ~leaves ~join_introducers:delegates

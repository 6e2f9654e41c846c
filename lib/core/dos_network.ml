module Hypercube = Topology.Hypercube

let src = Logs.Src.create "overlay.dos" ~doc:"DoS-resistant network events"

module Log = (val Logs.src_log src : Logs.LOG)

type round_report = {
  round : int;
  blocked_count : int;
  connected : bool;
  reachable_fraction : float;
  min_group_available : int;
  starved_groups : int;
}

type window_report = {
  window : int;
  reconfigured : bool;
  failed_rounds : int;
  disconnected_rounds : int;
  sampling_underflows : int;
  sampling_fallbacks : int;
  sampling_retries : int;
  sampling_escalations : int;
  c_multiplier : float;
  min_group_size : int;
  max_group_size : int;
}

type backend = Canonical | Message_level

type t = {
  rng : Prng.Stream.t;
  n : int;
  cube : Hypercube.t;
  period : int;
  backend : backend;
  (* Round progression, trace emission and — for the [Canonical] backend —
     fault application and loss accounting.  The [Message_level] backend
     instead hands the plan to its engine-backed {!Group_sim} (the engine
     is the per-message fault boundary), so its runtime stays fault-free
     and nothing is double-applied. *)
  runtime : Simnet.Runtime.t;
  faults : Simnet.Faults.plan option;
  retry : Retry.policy;
  mutable group_of : int array;  (* replaced, never changed in place *)
  mutable members : int array array; (* supernode -> sorted member ids *)
  mutable epoch : int;  (* how many times [group_of] was replaced *)
  mutable prev_blocked : bool array;
  (* Cross-window escalation: after a window whose reorganization needed
     underflow recovery, the next windows provision sampling with
     [c * boost] (sticky; see [escalate_provisioning]). *)
  mutable boost_attempt : int;
  mutable boost : float;
  (* Message-level backend: the in-flight group simulation of the sampling
     primitive for this window (recreated every window). *)
  mutable gs :
    (Supernode_sampling.state, Supernode_sampling.msg) Group_sim.t option;
  (* Current-window accounting. *)
  mutable failed_rounds : int;
  mutable disconnected_rounds : int;
  mutable windows : int;
  mutable last_window : window_report option;
}

(* Provision the per-supernode sample pools to cover the largest group
   (the |R(x)| <= beta log n requirement of Lemma 15). *)
let sampling_c ~members ~d =
  let max_group =
    Array.fold_left (fun acc m -> max acc (Array.length m)) 0 members
  in
  Float.max 2.0 ((float_of_int max_group /. float_of_int (max 1 d)) +. 1.0)

let fresh_group_sim t =
  let trace = Simnet.Runtime.trace t.runtime in
  let c =
    t.boost *. sampling_c ~members:t.members ~d:(Hypercube.dimension t.cube)
  in
  let proto =
    Supernode_sampling.protocol ~c ~trace ~fallback:(Retry.enabled t.retry)
      ~cube:t.cube ()
  in
  Group_sim.create ~trace ?faults:t.faults ~rng:(Prng.Stream.split t.rng)
    ~n:t.n ~group_of:t.group_of proto

let create ?(c = 1.0) ?(backend = Canonical) ?(trace = Simnet.Trace.null)
    ?faults ?(retry = Retry.fixed) ~rng ~n () =
  if n < 16 then invalid_arg "Dos_network.create: n too small";
  let faults =
    match faults with
    | Some plan when Simnet.Faults.features plan <> [] -> Some plan
    | _ -> None
  in
  let d = Params.dos_dimension ~c ~n in
  let cube = Hypercube.create d in
  let supernodes = Hypercube.node_count cube in
  let group_of = Array.init n (fun _ -> Prng.Stream.int rng supernodes) in
  let iters = Params.iterations_hypercube ~d in
  (* Canonical: the runtime applies the plan itself — reorder is vacuous
     on the single-message scatter legs and rejected rather than ignored.
     Message_level: the engine under Group_sim applies the full plan
     (reorder included), so the runtime installs nothing. *)
  let runtime =
    match backend with
    | Canonical ->
        Simnet.Runtime.create ~trace ?faults
          ~supports:[ `Drop; `Duplicate; `Delay; `Crash; `Recover ]
          ~who:"Dos_network" ~n ()
    | Message_level -> Simnet.Runtime.create ~trace ~n ()
  in
  let t =
    {
      rng;
      n;
      cube;
      period = (4 * iters) + 4;
      backend;
      runtime;
      faults;
      retry;
      group_of;
      (* each member array ascends by id, the order the reorganization
         phase relies on *)
      members = Topology.Groups.members ~groups:supernodes group_of;
      epoch = 0;
      prev_blocked = Array.make n false;
      boost_attempt = 0;
      boost = 1.0;
      gs = None;
      failed_rounds = 0;
      disconnected_rounds = 0;
      windows = 0;
      last_window = None;
    }
  in
  if backend = Message_level then t.gs <- Some (fresh_group_sim t);
  t

let n t = t.n
let supernode_count t = Hypercube.node_count t.cube
let dimension t = Hypercube.dimension t.cube
let period t = t.period
let group_of t = Array.copy t.group_of
let epoch t = t.epoch
let group_members t x = Array.copy t.members.(x)
let last_window t = t.last_window
let windows_completed t = t.windows

(* Connectivity of the non-blocked subgraph.  Within a group the non-blocked
   nodes form a clique; occupied neighboring groups are joined completely;
   hence the subgraph is connected iff the subgraph of the supernode
   hypercube induced by the occupied supernodes is connected. *)
let occupied_connected t ~blocked =
  let supernodes = supernode_count t in
  let occupied = Array.make supernodes false in
  Array.iteri (fun v x -> if not blocked.(v) then occupied.(x) <- true) t.group_of;
  let start = ref (-1) in
  for x = supernodes - 1 downto 0 do
    if occupied.(x) then start := x
  done;
  if !start < 0 then (true, 1.0) (* vacuously connected: nobody is non-blocked *)
  else begin
    let seen = Array.make supernodes false in
    let queue = Queue.create () in
    seen.(!start) <- true;
    Queue.push !start queue;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      incr visited;
      Array.iter
        (fun y ->
          if occupied.(y) && not seen.(y) then begin
            seen.(y) <- true;
            Queue.push y queue
          end)
        (Hypercube.neighbors t.cube x)
    done;
    let total = Array.fold_left (fun a o -> if o then a + 1 else a) 0 occupied in
    (!visited = total, float_of_int !visited /. float_of_int total)
  end

(* Scatter group x's i-th member (in id order) to the i-th supernode of
   pool x — the final phase of the reorganization (Lemma 15). *)
let assign_from_pools t ~pools =
  let supernodes = supernode_count t in
  let new_group_of = Array.make t.n 0 in
  let fallbacks = ref 0 in
  for x = 0 to supernodes - 1 do
    let pool = pools.(x) in
    Array.iteri
      (fun i v ->
        if i < Array.length pool then
          (* One scatter message per member: a lost or delayed leg strands
             the member on its old supernode — a stale pointer the next
             window's reorganization repairs.  Fault-free this is exactly
             [pool.(i)]. *)
          new_group_of.(v) <-
            (if Simnet.Runtime.leg t.runtime ~dst:v () then pool.(i)
             else t.group_of.(v))
        else begin
          (* Underflow left the pool short; fall back to a direct uniform
             draw (counted — a correctly provisioned run never does this). *)
          incr fallbacks;
          new_group_of.(v) <- Prng.Stream.int t.rng supernodes
        end)
      t.members.(x)
  done;
  (!fallbacks, new_group_of)

(* Recovery accounting of one window's reorganization. *)
type reorg_stats = {
  underflows : int;
  fallback_draws : int;  (** pool shortfalls patched by direct uniform draws *)
  retries : int;
  escalations : int;
}

(* The reorganization computed at the end of a healthy window: the groups
   simulate the rapid hypercube sampling primitive over the supernode cube,
   then scatter their members to the supernodes they sampled. *)
let reorganize t =
  match t.backend with
  | Canonical ->
      let c_sample = sampling_c ~members:t.members ~d:(dimension t) in
      let sampling =
        Rapid_hypercube.run
          ~c:(t.boost *. c_sample)
          ~retry:t.retry
          ~rng:(Prng.Stream.split t.rng) t.cube
      in
      let fallbacks, new_group_of =
        assign_from_pools t ~pools:sampling.Sampling_result.samples
      in
      Some
        ( {
            underflows = sampling.Sampling_result.underflows;
            fallback_draws = fallbacks;
            retries = sampling.Sampling_result.retries;
            escalations = sampling.Sampling_result.escalations;
          },
          new_group_of )
  | Message_level -> (
      match t.gs with
      | None -> None
      | Some gs when not (Group_sim.finished gs) -> None
      | Some gs ->
          if Group_sim.lost_groups gs <> [] then None
          else begin
            let supernodes = supernode_count t in
            let underflows = ref 0 in
            let node_fallbacks = ref 0 in
            let pools =
              Array.init supernodes (fun x ->
                  match Group_sim.state_of gs x with
                  | None -> [||]
                  | Some st ->
                      underflows :=
                        !underflows + Supernode_sampling.underflows st;
                      node_fallbacks :=
                        !node_fallbacks + Supernode_sampling.fallbacks st;
                      (* expose the multiset in random order (cf. the same
                         shuffle in Rapid_hypercube.run) *)
                      let pool = Supernode_sampling.samples st in
                      Prng.Stream.shuffle_in_place t.rng pool;
                      pool)
            in
            let fallbacks, new_group_of = assign_from_pools t ~pools in
            Some
              ( {
                  underflows = !underflows;
                  fallback_draws = !node_fallbacks + fallbacks;
                  retries = 0;
                  escalations = 0;
                },
                new_group_of )
          end)

(* Sticky cross-window escalation: a window that needed any underflow
   recovery raises the provisioning multiplier for all subsequent windows
   (capped by the policy's [c_cap]).  The primitive's own within-window
   retries handle transient faults; this handles a systematically
   under-provisioned [c]. *)
let escalate_provisioning t ~trouble =
  if trouble && Retry.enabled t.retry then begin
    t.boost_attempt <- t.boost_attempt + 1;
    t.boost <- Retry.escalate t.retry ~c:1.0 ~attempt:t.boost_attempt
  end

let run_round t ~blocked =
  if Array.length blocked <> t.n then
    invalid_arg "Dos_network.run_round: blocked array size mismatch";
  let rt = t.runtime in
  let round = Simnet.Runtime.round rt in
  (* Crash/recover transitions fire at the round boundary; a crashed node
     behaves like a blocked one for the rest of the round (the fault-free
     path never copies the array). *)
  Simnet.Runtime.tick rt;
  let blocked =
    if Simnet.Runtime.faulty rt then begin
      let b = Array.copy blocked in
      for v = 0 to t.n - 1 do
        if Simnet.Runtime.crashed rt v then b.(v) <- true
      done;
      b
    end
    else blocked
  in
  (* Availability this round: non-blocked in the previous and this round. *)
  let supernodes = supernode_count t in
  let available = Array.make supernodes 0 in
  for v = 0 to t.n - 1 do
    if (not blocked.(v)) && not t.prev_blocked.(v) then
      available.(t.group_of.(v)) <- available.(t.group_of.(v)) + 1
  done;
  let min_avail = Array.fold_left min max_int available in
  let starved =
    Array.fold_left (fun a c -> if c = 0 then a + 1 else a) 0 available
  in
  if starved > 0 then t.failed_rounds <- t.failed_rounds + 1;
  (* Message-level backend: advance the in-flight group simulation under
     exactly this round's blocked set. *)
  (match t.gs with
  | Some gs when not (Group_sim.finished gs) -> Group_sim.run_round gs ~blocked
  | _ -> ());
  let connected, reachable_fraction = occupied_connected t ~blocked in
  if not connected then t.disconnected_rounds <- t.disconnected_rounds + 1;
  let blocked_count =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked
  in
  let report =
    {
      round;
      blocked_count;
      connected;
      reachable_fraction;
      min_group_available = min_avail;
      starved_groups = starved;
    }
  in
  (* Window boundary: apply (or abandon) the reconfiguration. *)
  if (round + 1) mod t.period = 0 then begin
    let healthy = t.failed_rounds = 0 in
    let stats, reconfigured =
      match (if healthy then reorganize t else None) with
      | Some (stats, new_group_of) ->
          t.group_of <- new_group_of;
          t.members <- Topology.Groups.members ~groups:supernodes new_group_of;
          t.epoch <- t.epoch + 1;
          (stats, true)
      | None ->
          ( { underflows = 0; fallback_draws = 0; retries = 0; escalations = 0 },
            false )
    in
    (* Combined count kept for the pre-existing [sampling_underflows] field
       and trace key (byte compatibility of fault-free runs). *)
    let underflows = stats.underflows + stats.fallback_draws in
    let used_boost = t.boost in
    escalate_provisioning t ~trouble:(reconfigured && underflows > 0);
    if t.backend = Message_level then t.gs <- Some (fresh_group_sim t);
    let sizes = Array.map Array.length t.members in
    t.last_window <-
      Some
        {
          window = t.windows;
          reconfigured;
          failed_rounds = t.failed_rounds;
          disconnected_rounds = t.disconnected_rounds;
          sampling_underflows = underflows;
          sampling_fallbacks = stats.fallback_draws;
          sampling_retries = stats.retries;
          sampling_escalations = stats.escalations;
          c_multiplier = used_boost;
          min_group_size = Array.fold_left min max_int sizes;
          max_group_size = Array.fold_left max 0 sizes;
        };
    Log.debug (fun k ->
        k "window %d: reconfigured=%b failed_rounds=%d disconnected=%d"
          t.windows reconfigured t.failed_rounds t.disconnected_rounds);
    Simnet.Runtime.span rt ~name:"dos/window" ~rounds:t.period
      [
        ("window", Simnet.Trace.Int t.windows);
        ("reconfigured", Simnet.Trace.Bool reconfigured);
        ("failed_rounds", Simnet.Trace.Int t.failed_rounds);
        ("disconnected_rounds", Simnet.Trace.Int t.disconnected_rounds);
        ("underflows", Simnet.Trace.Int underflows);
        ("fallback_draws", Simnet.Trace.Int stats.fallback_draws);
        ("retries", Simnet.Trace.Int stats.retries);
        ("escalations", Simnet.Trace.Int stats.escalations);
        ("c_multiplier", Simnet.Trace.Float used_boost);
      ];
    t.windows <- t.windows + 1;
    t.failed_rounds <- 0;
    t.disconnected_rounds <- 0
  end;
  Simnet.Runtime.advance rt ~rounds:1;
  Array.blit blocked 0 t.prev_blocked 0 t.n;
  report

type ('state, 'msg) protocol = {
  init : supernode:int -> rng:Prng.Stream.t -> 'state;
  step :
    supernode:int ->
    step_index:int ->
    'state ->
    inbox:(int * 'msg) list ->
    rng:Prng.Stream.t ->
    'state * (int * 'msg) list;
  steps : int;
  state_bits : 'state -> int;
  msg_bits : 'msg -> int;
}

(* Wire format.  A Proposal travels within a group during a simulation
   round; a Super bundle carries all of one supernode's messages for one
   destination supernode and travels between groups during a
   synchronization round.  Each wire carries its price in bits, computed
   once when it is built, and the index of the supernode step whose
   receive phase it belongs to: a Proposal is adopted in the
   synchronization round of the step that built it, a Super bundle is
   consumed by the next step's simulation round.  A wire a delay fault
   carries into any other step is late, and in the synchronous model late
   means lost: it is charged as received and otherwise ignored.  The tag
   is simulator bookkeeping and is not priced. *)
type ('state, 'msg) wire =
  | Proposal of {
      step : int;
      bits : int;
      state : 'state;
      out : (int * 'msg) list;
    }
  | Super of { step : int; bits : int; src : int; msgs : 'msg list }

type phase = Sim | Sync

type ('state, 'msg) t = {
  protocol : ('state, 'msg) protocol;
  engine : ('state, 'msg) wire Simnet.Engine.t;
  metrics : Simnet.Metrics.t;
  trace : Simnet.Trace.t;
  n : int;
  id_bits : int;
  group_of : int array;
  members : int array array;
  node_rng : Prng.Stream.t array;
  node_state : 'state option array;
  canonical : 'state option array;
  lost : bool array;
  mutable phase : phase;
  mutable step_index : int;
}

let wire_bits = function Proposal { bits; _ } | Super { bits; _ } -> bits

let proposal t state out =
  let bits =
    t.protocol.state_bits state
    + List.fold_left
        (fun acc (_, m) -> acc + t.protocol.msg_bits m + t.id_bits)
        Simnet.Msg_size.header_bits out
  in
  Proposal { step = t.step_index; bits; state; out }

let super t ~src msgs =
  let bits =
    List.fold_left
      (fun acc m -> acc + t.protocol.msg_bits m)
      (Simnet.Msg_size.header_bits + t.id_bits)
      msgs
  in
  Super { step = t.step_index + 1; bits; src; msgs }

let create ?(trace = Simnet.Trace.null) ?faults ~rng ~n ~group_of protocol =
  if Array.length group_of <> n then
    invalid_arg "Group_sim.create: group_of size mismatch";
  let supernodes = Array.fold_left (fun a x -> max a (x + 1)) 0 group_of in
  Array.iter
    (fun x -> if x < 0 then invalid_arg "Group_sim.create: negative supernode")
    group_of;
  let members = Topology.Groups.members ~groups:supernodes group_of in
  Array.iteri
    (fun x m ->
      if Array.length m = 0 then
        invalid_arg (Printf.sprintf "Group_sim.create: empty group %d" x))
    members;
  let engine = Simnet.Engine.create ~trace ?faults ~n () in
  (* Every member starts in sync with the (per-supernode deterministic)
     initial state, as the paper assumes. *)
  let node_state = Array.make n None in
  let canonical = Array.make supernodes None in
  for x = 0 to supernodes - 1 do
    let st = protocol.init ~supernode:x ~rng:(Prng.Stream.split rng) in
    canonical.(x) <- Some st;
    Array.iter (fun v -> node_state.(v) <- Some st) members.(x)
  done;
  {
    protocol;
    engine;
    metrics = Simnet.Metrics.create ~n;
    trace;
    n;
    id_bits = Simnet.Msg_size.id_bits n;
    group_of;
    members;
    node_rng = Prng.Stream.split_n rng n;
    node_state;
    canonical;
    lost = Array.make supernodes false;
    phase = Sim;
    step_index = 0;
  }

let supernode_count t = Array.length t.members
let network_rounds_total t = 2 * t.protocol.steps
let finished t = t.step_index >= t.protocol.steps
let lost_groups t =
  let out = ref [] in
  Array.iteri (fun x l -> if l then out := x :: !out) t.lost;
  List.rev !out

let state_of t x = if t.lost.(x) then None else t.canonical.(x)

let synced_members t x =
  Array.fold_left
    (fun acc v -> if t.node_state.(v) <> None then acc + 1 else acc)
    0 t.members.(x)

let metrics t = t.metrics

(* Send [wire] from the computing node [me] to [u], charging [me] for the
   copy iff the engine accepts it: neither endpoint crashed nor blocked
   this round ([me] computes, so only [u] needs checking). *)
let send_copy t ~blocked ~me u wire =
  Simnet.Engine.send t.engine ~src:me ~dst:u wire;
  if (not blocked.(u)) && not (Simnet.Engine.is_crashed t.engine u) then
    Simnet.Metrics.on_send t.metrics ~node:me ~bits:(wire_bits wire)

(* One network round: the engine delivers and runs [compute] on every
   available node after charging it for each message it received; then
   the round's metrics close and its [Round] event is emitted. *)
let step_round t ~blocked compute =
  Simnet.Engine.set_blocked t.engine (fun v -> blocked.(v));
  Simnet.Engine.deliver_and_step t.engine (fun ~round:_ ~me ~inbox ->
      Simnet.Engine.slice_iter
        (fun ~src:_ w ->
          Simnet.Metrics.on_recv t.metrics ~node:me ~bits:(wire_bits w))
        inbox;
      compute ~me inbox);
  let summary = Simnet.Metrics.finish_round t.metrics in
  if Simnet.Trace.enabled t.trace then begin
    let blocked = Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked in
    Simnet.Trace.emit t.trace (Simnet.Trace.round_of_summary ~blocked summary)
  end

(* Collapse the Super bundles a proposer received for this step into the
   supernode-level inbox: all synced members of a source group send
   identical bundles, so keep the copy from the lowest-id physical sender
   per source supernode. *)
let supernode_inbox t inbox =
  let best = Hashtbl.create 8 in
  Simnet.Engine.slice_iter
    (fun ~src:sender w ->
      match w with
      | Super { step; src; msgs; _ } when step = t.step_index -> (
          match Hashtbl.find_opt best src with
          | Some (s0, _) when s0 <= sender -> ()
          | _ -> Hashtbl.replace best src (sender, msgs))
      | Super _ | Proposal _ -> ())
    inbox;
  Hashtbl.fold
    (fun src (_, msgs) acc -> List.fold_left (fun a m -> (src, m) :: a) acc msgs)
    best []

let sim_round t ~blocked =
  let proposed = Array.make (supernode_count t) false in
  step_round t ~blocked (fun ~me inbox ->
      match t.node_state.(me) with
      | None -> () (* out of sync: cannot simulate this step *)
      | Some st ->
          let x = t.group_of.(me) in
          let st', out =
            t.protocol.step ~supernode:x ~step_index:t.step_index st
              ~inbox:(supernode_inbox t inbox) ~rng:t.node_rng.(me)
          in
          proposed.(x) <- true;
          (* The proposer's own copy becomes stale; like everyone else it
             adopts a proposal in the synchronization round. *)
          let wire = proposal t st' out in
          Array.iter (fun u -> send_copy t ~blocked ~me u wire) t.members.(x));
  (* A group whose members were all blocked or out of sync this round has
     lost the supernode's state: nothing was proposed, so nothing can be
     adopted (Lemma 14's precondition failed). *)
  Array.iteri
    (fun x p -> if (not p) && not t.lost.(x) then t.lost.(x) <- true)
    proposed;
  if Simnet.Trace.enabled t.trace then begin
    let proposing = Array.fold_left (fun a p -> if p then a + 1 else a) 0 proposed in
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Span
         {
           name = "groupsim/sim";
           rounds = 1;
           fields =
             [
               ("step_index", Simnet.Trace.Int t.step_index);
               ("proposing_groups", Simnet.Trace.Int proposing);
             ];
         })
  end;
  t.phase <- Sync

(* The supernode's outgoing messages as one bundle per destination
   supernode, each to be sent to every member of that group. *)
let bundles t ~src out =
  let per_dst = Hashtbl.create 8 in
  List.iter
    (fun (dst, m) ->
      Hashtbl.replace per_dst dst
        (m :: Option.value ~default:[] (Hashtbl.find_opt per_dst dst)))
    out;
  let acc = ref [] in
  Hashtbl.iter
    (fun dst msgs ->
      if dst < 0 || dst >= supernode_count t then
        invalid_arg "Group_sim: protocol addressed unknown supernode";
      acc := (dst, super t ~src (List.rev msgs)) :: !acc)
    per_dst;
  List.rev !acc

let sync_round t ~blocked =
  (* Any member that receives proposals adopts the lowest-id one and
     becomes synced; members that receive none (blocked around the
     simulation round, or the group is lost) fall out of sync. *)
  let new_states = Array.make t.n None in
  let adopted = Array.make (supernode_count t) None in
  (* Adopters of the same proposal forward identical bundles, so they are
     built once per adopted proposal (keyed by its proposer) and shared. *)
  let forwards = Hashtbl.create 64 in
  step_round t ~blocked (fun ~me inbox ->
      let winner = ref None in
      Simnet.Engine.slice_iter
        (fun ~src:sender w ->
          match w with
          | Proposal { step; state; out; _ } when step = t.step_index -> (
              match !winner with
              | Some (s0, _, _) when s0 <= sender -> ()
              | _ -> winner := Some (sender, state, out))
          | Proposal _ | Super _ -> ())
        inbox;
      match !winner with
      | None -> ()
      | Some (proposer, st, out) ->
          let x = t.group_of.(me) in
          new_states.(me) <- Some st;
          if adopted.(x) = None then adopted.(x) <- Some st;
          let bundles =
            match Hashtbl.find_opt forwards proposer with
            | Some b -> b
            | None ->
                let b = bundles t ~src:x out in
                Hashtbl.add forwards proposer b;
                b
          in
          List.iter
            (fun (dst, bundle) ->
              Array.iter
                (fun u -> send_copy t ~blocked ~me u bundle)
                t.members.(dst))
            bundles);
  Array.blit new_states 0 t.node_state 0 t.n;
  Array.iteri
    (fun x st -> match st with Some _ -> t.canonical.(x) <- st | None -> ())
    adopted;
  if Simnet.Trace.enabled t.trace then begin
    let adopting =
      Array.fold_left
        (fun a st -> match st with Some _ -> a + 1 | None -> a)
        0 adopted
    in
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Span
         {
           name = "groupsim/sync";
           rounds = 1;
           fields =
             [
               ("step_index", Simnet.Trace.Int t.step_index);
               ("adopting_groups", Simnet.Trace.Int adopting);
             ];
         })
  end;
  t.phase <- Sim;
  t.step_index <- t.step_index + 1

let run_round t ~blocked =
  if finished t then invalid_arg "Group_sim.run_round: already finished";
  if Array.length blocked <> t.n then
    invalid_arg "Group_sim.run_round: blocked size mismatch";
  match t.phase with
  | Sim -> sim_round t ~blocked
  | Sync -> sync_round t ~blocked

let run_all t ~blocked_for_round =
  while not (finished t) do
    let round = Simnet.Engine.round t.engine in
    run_round t ~blocked:(blocked_for_round ~round)
  done

type strategy = Random_blocking | Group_kill | Isolate_node

let all = [ Random_blocking; Group_kill; Isolate_node ]

let to_string = function
  | Random_blocking -> "random"
  | Group_kill -> "group-kill"
  | Isolate_node -> "isolate"

(* One observed assignment and what the strategies read of it, each
   built at most once per snapshot, the first round a strategy asks:
   the group membership and the groups' smallest-first order. *)
type snapshot = {
  group_of : int array;
  members : int array array Lazy.t;
  order : int array Lazy.t;
}

type t = {
  strategy : strategy;
  rng : Prng.Stream.t;
  frac : float;
  snapshots : snapshot Simnet.Snapshots.t;
  mutable latest : snapshot option;  (* the last snapshot pushed *)
  trace : Simnet.Trace.t;
}

let create ?(trace = Simnet.Trace.null) ?staleness strategy ~rng ~lateness
    ~frac =
  if frac < 0.0 || frac >= 1.0 then
    invalid_arg "Dos_adversary.create: frac out of [0, 1)";
  let snapshots =
    (* The drawn-staleness buffer gets its own child stream so observation
       jitter never perturbs the strategy's draws; the fixed-lateness path
       splits nothing, keeping pre-staleness runs byte-identical. *)
    match staleness with
    | None -> Simnet.Snapshots.create ~lateness
    | Some staleness ->
        Simnet.Snapshots.create_drawn ~staleness ~rng:(Prng.Stream.split rng)
  in
  { strategy; rng; frac; snapshots; latest = None; trace }

let budget t ~n = int_of_float (Float.round (t.frac *. float_of_int n))

let random_fill ?(avoid = -1) t blocked ~n ~budget =
  (* Block uniformly random not-yet-blocked nodes until the budget is met. *)
  let remaining = ref (min budget (n - 1)) in
  while !remaining > 0 do
    let v = Prng.Stream.int t.rng n in
    if (not blocked.(v)) && v <> avoid then begin
      blocked.(v) <- true;
      decr remaining
    end
  done

(* Group membership as recorded in a (possibly stale) view.  The view may
   describe an older node population: entries can be [-1] (departed) and the
   group index space can differ from the current one, so the group count is
   derived from the view itself and consumers clamp node ids to the current
   population. *)
let members_of view =
  let supernodes = Array.fold_left (fun a x -> max a (x + 1)) 1 view in
  let vecs = Array.init supernodes (fun _ -> Topology.Intvec.create ()) in
  Array.iteri (fun v x -> if x >= 0 then Topology.Intvec.push vecs.(x) v) view;
  Array.map Topology.Intvec.to_array vecs

(* Smallest groups first: starving a group costs its whole size, so
   small groups are the cheapest kills. *)
let smallest_first members =
  let order = Array.init (Array.length members) (fun x -> x) in
  Array.sort
    (fun x y -> compare (Array.length members.(x)) (Array.length members.(y)))
    order;
  order

let snapshot group_of =
  let members = lazy (members_of group_of) in
  { group_of; members; order = lazy (smallest_first (Lazy.force members)) }

(* The assignment changes only when the network reconfigures, so a round
   whose assignment equals the last one pushes that snapshot again: one
   scan, no copy, and the window holds one snapshot per distinct
   assignment it spans. *)
let observe t ~group_of =
  let snap =
    match t.latest with
    | Some last when last.group_of = group_of -> last
    | _ ->
        let snap = snapshot (Array.copy group_of) in
        t.latest <- Some snap;
        snap
  in
  Simnet.Snapshots.push t.snapshots snap

let blocked_set t ~cube ~n =
  let blocked = Array.make n false in
  let b = budget t ~n in
  if b > 0 then begin
    match (t.strategy, Simnet.Snapshots.view t.snapshots) with
    | Random_blocking, _ | _, None -> random_fill t blocked ~n ~budget:b
    | Group_kill, Some view ->
        let members = Lazy.force view.members in
        let spent = ref 0 in
        (try
           Array.iter
             (fun x ->
               let size = Array.length members.(x) in
               if size > 0 then begin
                 if !spent + size > b then raise Exit;
                 Array.iter
                   (fun v -> if v < n then blocked.(v) <- true)
                   members.(x);
                 spent := !spent + size
               end)
             (Lazy.force view.order)
         with Exit -> ());
        if !spent < b then random_fill t blocked ~n ~budget:(b - !spent)
    | Isolate_node, Some view ->
        let members = Lazy.force view.members in
        let group_of = view.group_of in
        let victim = Prng.Stream.int t.rng (min n (Array.length group_of)) in
        let x = group_of.(victim) in
        let spent = ref 0 in
        let block v =
          if v <> victim && v < n && (not blocked.(v)) && !spent < b then begin
            blocked.(v) <- true;
            incr spent
          end
        in
        if x >= 0 then begin
          Array.iter block members.(x);
          Array.iter
            (fun y ->
              if y < Array.length members then Array.iter block members.(y))
            (Topology.Hypercube.neighbors cube x)
        end;
        if !spent < b then
          random_fill ~avoid:victim t blocked ~n ~budget:(b - !spent)
  end;
  if Simnet.Trace.enabled t.trace then begin
    let count = Array.fold_left (fun a x -> if x then a + 1 else a) 0 blocked in
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Adversary
         {
           kind = "dos";
           fields =
             [
               ("strategy", Simnet.Trace.String (to_string t.strategy));
               ("blocked", Simnet.Trace.Int count);
               ("budget", Simnet.Trace.Int b);
               ( "has_view",
                 Simnet.Trace.Bool (Simnet.Snapshots.view t.snapshots <> None)
               );
             ];
         })
  end;
  blocked

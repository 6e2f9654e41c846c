type strategy = Random_blocking | Group_kill | Isolate_node

let all = [ Random_blocking; Group_kill; Isolate_node ]

let to_string = function
  | Random_blocking -> "random"
  | Group_kill -> "group-kill"
  | Isolate_node -> "isolate"

(* One observed assignment and what the strategies read of it, built
   once per epoch: the group membership and the groups' smallest-first
   order. *)
type snapshot = {
  group_of : int array;
  members : int array array;
  order : int array;
}

type t = {
  strategy : strategy;
  rng : Prng.Stream.t;
  frac : float;
  snapshots : snapshot Simnet.Snapshots.t;
  picks : Simnet.Picks.t;  (* this round's blocked nodes *)
  mutable blocked : bool array;  (* the array [blocked_set] returns *)
  trace : Simnet.Trace.t;
}

let create ?(trace = Simnet.Trace.null) ?staleness strategy ~rng ~lateness
    ~frac =
  if frac < 0.0 || frac >= 1.0 then
    invalid_arg "Dos_adversary.create: frac out of [0, 1)";
  {
    strategy;
    rng;
    frac;
    snapshots = Simnet.Snapshots.create ?staleness ~lateness rng;
    picks = Simnet.Picks.create ();
    blocked = [||];
    trace;
  }

(* The view may describe an older node population: entries can be [-1]
   (departed) and the group index space can differ from the current one,
   so the group count is derived from the view itself and consumers clamp
   node ids to the current population.  Smallest groups come first in
   [order]: starving a group costs its whole size, so small groups are the
   cheapest kills. *)
let snapshot group_of =
  let groups = Array.fold_left (fun a x -> max a (x + 1)) 1 group_of in
  let members = Topology.Groups.members ~groups group_of in
  let order = Array.init groups Fun.id in
  Array.sort
    (fun x y -> compare (Array.length members.(x)) (Array.length members.(y)))
    order;
  { group_of; members; order }

let observe t ~epoch group_of =
  Simnet.Snapshots.observe t.snapshots ~epoch (fun () -> snapshot (group_of ()))

let blocked_set t ~cube ~n =
  if Array.length t.blocked <> n then t.blocked <- Array.make n false
  else Array.fill t.blocked 0 n false;
  let blocked = t.blocked in
  Simnet.Picks.start t.picks ~n;
  (* Block uniformly random not-yet-blocked nodes until [k] more are. *)
  let random_fill ?avoid k =
    Simnet.Picks.fill ?avoid t.picks t.rng (min k (n - 1)) ~into:blocked
  in
  let b = int_of_float (Float.round (t.frac *. float_of_int n)) in
  if b > 0 then begin
    match (t.strategy, Simnet.Snapshots.view t.snapshots) with
    | Random_blocking, _ | _, None -> random_fill b
    | Group_kill, Some view ->
        let members = view.members and order = view.order in
        let block v =
          if v < n && Simnet.Picks.take t.picks v then blocked.(v) <- true
        in
        (* whole groups, smallest first, while the next one fits *)
        let spent = ref 0 and i = ref 0 in
        while
          !i < Array.length order
          && !spent + Array.length members.(order.(!i)) <= b
        do
          Array.iter block members.(order.(!i));
          spent := !spent + Array.length members.(order.(!i));
          incr i
        done;
        random_fill (b - !spent)
    | Isolate_node, Some view ->
        let members = view.members and group_of = view.group_of in
        let victim = Prng.Stream.int t.rng (min n (Array.length group_of)) in
        let x = group_of.(victim) in
        let spent = ref 0 in
        let block v =
          if v <> victim && v < n && !spent < b && Simnet.Picks.take t.picks v
          then begin
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
        random_fill ~avoid:victim (b - !spent)
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

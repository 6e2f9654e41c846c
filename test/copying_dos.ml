(* The DoS adversary as it was before snapshots were keyed by topology
   epoch: a fresh copy of the assignment pushed every round, the group
   membership rebuilt by growable vectors for every view, a fresh blocked
   array a round, and the random fill rejecting nodes that array already
   holds.  It draws exactly what [Core.Dos_adversary] draws. *)
type t = {
  strategy : Core.Dos_adversary.strategy;
  rng : Prng.Stream.t;
  frac : float;
  snapshots : int array Simnet.Snapshots.t;
}

let create ?staleness strategy ~rng ~lateness ~frac =
  let snapshots =
    Simnet.Snapshots.create ?staleness ~lateness rng
  in
  { strategy; rng; frac; snapshots }

let observe t ~group_of =
  Simnet.Snapshots.push t.snapshots (Array.copy group_of)

let random_fill ?(avoid = -1) t blocked ~n ~budget =
  let remaining = ref (min budget (n - 1)) in
  while !remaining > 0 do
    let v = Prng.Stream.int t.rng n in
    if (not blocked.(v)) && v <> avoid then begin
      blocked.(v) <- true;
      decr remaining
    end
  done

let members_of view =
  let supernodes = Array.fold_left (fun a x -> max a (x + 1)) 1 view in
  let vecs = Array.init supernodes (fun _ -> Topology.Intvec.create ()) in
  Array.iteri (fun v x -> if x >= 0 then Topology.Intvec.push vecs.(x) v) view;
  Array.map Topology.Intvec.to_array vecs

let blocked_set t ~cube ~n =
  let blocked = Array.make n false in
  let b = int_of_float (Float.round (t.frac *. float_of_int n)) in
  (if b > 0 then
     match (t.strategy, Simnet.Snapshots.view t.snapshots) with
     | Core.Dos_adversary.Random_blocking, _ | _, None ->
         random_fill t blocked ~n ~budget:b
     | Core.Dos_adversary.Group_kill, Some view ->
         let members = members_of view in
         let order = Array.init (Array.length members) Fun.id in
         Array.sort
           (fun x y ->
             compare (Array.length members.(x)) (Array.length members.(y)))
           order;
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
              order
          with Exit -> ());
         if !spent < b then random_fill t blocked ~n ~budget:(b - !spent)
     | Core.Dos_adversary.Isolate_node, Some view ->
         let members = members_of view in
         let victim = Prng.Stream.int t.rng (min n (Array.length view)) in
         let x = view.(victim) in
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
           random_fill ~avoid:victim t blocked ~n ~budget:(b - !spent));
  blocked

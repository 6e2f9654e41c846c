type strategy = No_attack | Random_blocking | Group_kill

let parse_strategy = function
  | "none" -> Ok No_attack
  | "random" -> Ok Random_blocking
  | "group-kill" -> Ok Group_kill
  | s ->
      Error
        (Printf.sprintf "unknown attack %S (expected none|random|group-kill)" s)

let strategy_to_string = function
  | No_attack -> "none"
  | Random_blocking -> "random"
  | Group_kill -> "group-kill"

type t = {
  strategy : strategy;
  budget : int;
  rng : Prng.Stream.t;
  dht : Apps.Robust_dht.t;
  snapshots : int array Simnet.Snapshots.t;  (* group-kill's targets *)
  picks : Simnet.Picks.t;
  hot : int array;  (* supernode indices, hottest first *)
}

let key_weight (spec : Spec.t) key =
  match spec.Spec.popularity with
  | Spec.Uniform -> 1.0
  | Spec.Zipf s -> 1.0 /. Float.pow (float_of_int (key + 1)) s

let hot_supernodes ?hot_keys ~dht ~spec () =
  let sns = Apps.Robust_dht.supernode_count dht in
  let heat = Array.make sns 0.0 in
  (match hot_keys with
  | Some pairs ->
      (* a composite application's real hot keys, weights supplied *)
      Array.iter
        (fun (key, w) ->
          let sn = Apps.Robust_dht.supernode_of_key dht key in
          heat.(sn) <- heat.(sn) +. w)
        pairs
  | None ->
      for key = 0 to spec.Spec.keys - 1 do
        let sn = Apps.Robust_dht.supernode_of_key dht key in
        heat.(sn) <- heat.(sn) +. key_weight spec key
      done);
  let order = Array.init sns Fun.id in
  Array.sort
    (fun a b ->
      match compare heat.(b) heat.(a) with 0 -> compare a b | c -> c)
    order;
  order

let create ?(lateness = 0) ?staleness ?hot_keys ~strategy ~frac ~rng ~dht
    ~spec () =
  if frac < 0.0 || frac >= 1.0 || not (Float.is_finite frac) then
    invalid_arg "Workload.Attack: frac must be in [0, 1)";
  {
    strategy;
    budget = int_of_float (frac *. float_of_int (Apps.Robust_dht.n dht));
    rng;
    dht;
    snapshots = Simnet.Snapshots.create ?staleness ~lateness rng;
    picks = Simnet.Picks.create ();
    hot = hot_supernodes ?hot_keys ~dht ~spec ();
  }

(* Group-kill's targets under the current assignment: the members of
   the hottest supernodes, hottest first and ascending within each, up to
   the budget.  They change only when the DHT reshuffles, so they are
   built once per epoch and a snapshot is at most [budget] ids. *)
let targets t =
  let rec from i left =
    if left = 0 || i = Array.length t.hot then []
    else
      let m = Apps.Robust_dht.group_members t.dht t.hot.(i) in
      let m = if Array.length m > left then Array.sub m 0 left else m in
      m :: from (i + 1) (left - Array.length m)
  in
  Array.concat (from 0 t.budget)

let observe t =
  match t.strategy with
  | Group_kill ->
      Simnet.Snapshots.observe t.snapshots
        ~epoch:(Apps.Robust_dht.epoch t.dht) (fun () -> targets t)
  | No_attack | Random_blocking -> ()

let mark t ~into =
  if t.budget > 0 then
    match t.strategy with
    | No_attack -> ()
    | Random_blocking ->
        Simnet.Picks.start t.picks ~n:(Apps.Robust_dht.n t.dht);
        Simnet.Picks.fill t.picks t.rng t.budget ~into
    | Group_kill -> (
        match Simnet.Snapshots.view t.snapshots with
        | None -> ()
        | Some ids -> Array.iter (fun v -> into.(v) <- true) ids)

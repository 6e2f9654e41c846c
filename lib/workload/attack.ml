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
  snapshots : int array Simnet.Snapshots.t;
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
  let n = Apps.Robust_dht.n dht in
  let snapshots =
    (* Drawn staleness gets a dedicated child stream so observation jitter
       never perturbs the attack draws; the fixed path splits nothing,
       keeping pre-staleness runs byte-identical. *)
    match staleness with
    | None -> Simnet.Snapshots.create ~lateness
    | Some staleness ->
        Simnet.Snapshots.create_drawn ~staleness ~rng:(Prng.Stream.split rng)
  in
  {
    strategy;
    budget = int_of_float (frac *. float_of_int n);
    rng;
    dht;
    snapshots;
    hot = hot_supernodes ?hot_keys ~dht ~spec ();
  }

let observe t =
  match t.strategy with
  | Group_kill ->
      (* [group_of] returns a fresh copy, which the snapshot may keep *)
      Simnet.Snapshots.push t.snapshots (Apps.Robust_dht.group_of t.dht)
  | No_attack | Random_blocking -> ()

let mark_random t ~into =
  let n = Apps.Robust_dht.n t.dht in
  let chosen = Array.make n false in
  let picked = ref 0 in
  (* distinct-draw rejection: budget < n, so this terminates, and the draw
     sequence is a deterministic function of the adversary's stream *)
  while !picked < t.budget do
    let v = Prng.Stream.int t.rng n in
    if not chosen.(v) then begin
      chosen.(v) <- true;
      into.(v) <- true;
      incr picked
    end
  done

let mark_group_kill t ~into =
  match Simnet.Snapshots.view t.snapshots with
  | None -> ()
  | Some view ->
      let sns = Apps.Robust_dht.supernode_count t.dht in
      (* invert the (stale) assignment once: members.(sn) = servers the
         adversary believes represent supernode sn, ascending *)
      let members = Array.make sns [] in
      for v = Array.length view - 1 downto 0 do
        let sn = view.(v) in
        if sn >= 0 && sn < sns then members.(sn) <- v :: members.(sn)
      done;
      let left = ref t.budget in
      let hot_i = ref 0 in
      while !left > 0 && !hot_i < Array.length t.hot do
        let sn = t.hot.(!hot_i) in
        List.iter
          (fun v ->
            if !left > 0 then begin
              into.(v) <- true;
              decr left
            end)
          members.(sn);
        incr hot_i
      done

let mark t ~into =
  if t.budget > 0 then
    match t.strategy with
    | No_attack -> ()
    | Random_blocking -> mark_random t ~into
    | Group_kill -> mark_group_kill t ~into

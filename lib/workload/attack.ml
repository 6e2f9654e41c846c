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

(* The adversary's picture of one assignment, inverted: supernode sn's
   servers, ascending, are [ids.(offs.(sn)) .. ids.(offs.(sn + 1) - 1)]. *)
type picture = { offs : int array; ids : int array }

type t = {
  strategy : strategy;
  budget : int;
  rng : Prng.Stream.t;
  dht : Apps.Robust_dht.t;
  snapshots : picture Simnet.Snapshots.t;
  mutable latest : picture;  (* the picture of epoch [seen] *)
  mutable seen : int;  (* the DHT epoch [latest] was taken at; -1: none *)
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
    latest = { offs = [||]; ids = [||] };
    seen = -1;
    hot = hot_supernodes ?hot_keys ~dht ~spec ();
  }

(* Counting sort of the servers by supernode: one pass counts, one
   places, so each supernode's servers come out ascending. *)
let invert ~sns group_of =
  let offs = Array.make (sns + 1) 0 in
  Array.iter
    (fun sn -> if sn >= 0 && sn < sns then offs.(sn + 1) <- offs.(sn + 1) + 1)
    group_of;
  for sn = 1 to sns do
    offs.(sn) <- offs.(sn) + offs.(sn - 1)
  done;
  let ids = Array.make offs.(sns) 0 in
  let next = Array.sub offs 0 sns in
  Array.iteri
    (fun v sn ->
      if sn >= 0 && sn < sns then begin
        ids.(next.(sn)) <- v;
        next.(sn) <- next.(sn) + 1
      end)
    group_of;
  { offs; ids }

(* The assignment changes only when the DHT reshuffles, so it is copied
   and inverted once per epoch; the rounds in between push the same
   picture again, and the window holds one picture per distinct
   assignment it spans. *)
let observe t =
  match t.strategy with
  | Group_kill ->
      let epoch = Apps.Robust_dht.epoch t.dht in
      if epoch <> t.seen then begin
        t.latest <-
          invert
            ~sns:(Apps.Robust_dht.supernode_count t.dht)
            (Apps.Robust_dht.group_of t.dht);
        t.seen <- epoch
      end;
      Simnet.Snapshots.push t.snapshots t.latest
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
  | Some { offs; ids } ->
      let left = ref t.budget in
      let hot_i = ref 0 in
      while !left > 0 && !hot_i < Array.length t.hot do
        let sn = t.hot.(!hot_i) in
        let i = ref offs.(sn) in
        while !left > 0 && !i < offs.(sn + 1) do
          into.(ids.(!i)) <- true;
          decr left;
          incr i
        done;
        incr hot_i
      done

let mark t ~into =
  if t.budget > 0 then
    match t.strategy with
    | No_attack -> ()
    | Random_blocking -> mark_random t ~into
    | Group_kill -> mark_group_kill t ~into

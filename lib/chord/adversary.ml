type strategy = No_attack | Random_blocking | Succ_kill

let parse_strategy = function
  | "none" -> Ok No_attack
  | "random" -> Ok Random_blocking
  | "succ-kill" | "group-kill" -> Ok Succ_kill
  | s ->
      Error
        (Printf.sprintf "unknown attack %S (expected none|random|succ-kill)" s)

let strategy_to_string = function
  | No_attack -> "none"
  | Random_blocking -> "random"
  | Succ_kill -> "succ-kill"

type t = {
  strategy : strategy;
  budget : int;
  rng : Prng.Stream.t;
  ring : Ring.t;
  snapshots : int array Simnet.Snapshots.t;  (* succ-kill's targets *)
  picks : Simnet.Picks.t;
  scratch : int array;  (* [budget] cells that [targets] fills *)
  hot : int array;  (* key ids, hottest first *)
}

let create ?(lateness = 0) ?staleness ~strategy ~frac ~rng ~ring ~hot_ids () =
  if frac < 0.0 || frac >= 1.0 || not (Float.is_finite frac) then
    invalid_arg "Chord.Adversary: frac must be in [0, 1)";
  let budget = int_of_float (frac *. float_of_int (Ring.n ring)) in
  {
    strategy;
    budget;
    rng;
    ring;
    snapshots = Simnet.Snapshots.create ?staleness ~lateness rng;
    picks = Simnet.Picks.create ();
    scratch = Array.make budget 0;
    hot = hot_ids;
  }

(* Succ-kill's targets under the current topology: hottest key first, its
   owner and the owner's successor list, each node once, up to the budget.
   [Ring.owner_with] reads only the static id order and the membership. *)
let targets t =
  let n = Ring.n t.ring and alive = Ring.alive t.ring in
  let k = ref 0 in
  Simnet.Picks.start t.picks ~n;
  let block v =
    if !k < t.budget && v >= 0 && v < n && Simnet.Picks.take t.picks v
    then begin
      t.scratch.(!k) <- v;
      incr k
    end
  in
  Array.iter
    (fun kid ->
      if !k < t.budget then begin
        let owner = Ring.owner_with t.ring ~alive kid in
        if owner >= 0 then begin
          block owner;
          Array.iter block (Ring.node t.ring owner).Ring.succs
        end
      end)
    t.hot;
  Array.sub t.scratch 0 !k

let observe t =
  match t.strategy with
  | Succ_kill -> Simnet.Snapshots.push t.snapshots (targets t)
  | No_attack | Random_blocking -> ()

let mark t ~into =
  if t.budget > 0 then
    match t.strategy with
    | No_attack -> ()
    | Random_blocking ->
        Simnet.Picks.start t.picks ~n:(Ring.n t.ring);
        Simnet.Picks.fill t.picks t.rng t.budget ~into
    | Succ_kill -> (
        match Simnet.Snapshots.view t.snapshots with
        | None -> ()
        | Some ids -> Array.iter (fun v -> into.(v) <- true) ids)

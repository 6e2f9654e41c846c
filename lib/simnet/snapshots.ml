type staleness =
  | Fixed of int
  | Mixed of float
  | Uniform of int * int

let staleness_max = function
  | Fixed n -> n
  | Mixed f -> int_of_float (Float.ceil f)
  | Uniform (_, hi) -> hi

let staleness_of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error ("staleness: " ^ m)) fmt in
  let is_range =
    match String.index_opt s '.' with
    | Some i -> i + 1 < String.length s && s.[i + 1] = '.'
    | None -> false
  in
  if is_range then
    match String.index_opt s '.' with
    | None -> assert false
    | Some i -> (
        let lo = String.sub s 0 i
        and hi = String.sub s (i + 2) (String.length s - i - 2) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when 0 <= lo && lo <= hi -> Ok (Uniform (lo, hi))
        | Some _, Some _ -> err "range needs 0 <= LO <= HI, got %S" s
        | _ -> err "range expects LO..HI integers, got %S" s)
  else
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok (Fixed n)
    | Some _ -> err "must be >= 0, got %S" s
    | None -> (
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f >= 0.0 -> Ok (Mixed f)
        | Some _ -> err "must be finite and >= 0, got %S" s
        | None -> err "expects T, T.F or LO..HI, got %S" s)

let staleness_to_string = function
  | Fixed n -> string_of_int n
  | Mixed f -> Stats.Float_text.json_repr f
  | Uniform (lo, hi) -> Printf.sprintf "%d..%d" lo hi

type 'a t = {
  dist : staleness;
  rng : Prng.Stream.t;  (* drawn from only by [Mixed] and [Uniform] *)
  (* Ring of the last [max lateness + 1] snapshots; older ones can never be
     the newest-visible again but [view_at] may still want a small window,
     so we keep exactly max lateness + 1. *)
  mutable ring : 'a option array;
  mutable count : int;
  (* Lateness in force for the current round, redrawn on every [push]. *)
  mutable current : int;
  mutable epoch : int;  (* the epoch of the newest snapshot [observe] built *)
}

let create ?staleness ~lateness rng =
  let dist = Option.value staleness ~default:(Fixed lateness) in
  (match dist with
  | Fixed n when n < 0 -> invalid_arg "Snapshots.create: negative lateness"
  | Mixed f when (not (Float.is_finite f)) || f < 0.0 ->
      invalid_arg "Snapshots.create: bad expected lateness"
  | Uniform (lo, hi) when lo < 0 || lo > hi ->
      invalid_arg "Snapshots.create: bad range"
  | _ -> ());
  let max_l = staleness_max dist in
  {
    dist;
    rng = (if Option.is_none staleness then rng else Prng.Stream.split rng);
    ring = Array.make (max_l + 1) None;
    count = 0;
    current = max_l;
    epoch = 0;
  }

let staleness t = t.dist
let current_lateness t = t.current

let draw t =
  match t.dist with
  | Fixed n -> n
  | Mixed f ->
      let base = int_of_float (Float.floor f) in
      let frac = f -. Float.of_int base in
      base + (if frac > 0.0 && Prng.Stream.bernoulli t.rng frac then 1 else 0)
  | Uniform (lo, hi) -> Prng.Stream.int_in t.rng lo hi

let push_slot t slot =
  t.ring.(t.count mod Array.length t.ring) <- slot;
  t.count <- t.count + 1;
  t.current <- draw t

let push t snap = push_slot t (Some snap)

(* An unmoved epoch pushes the newest slot again: no build, no copy, and
   the ring holds one snapshot per distinct epoch it spans. *)
let observe t ~epoch build =
  if t.count = 0 || epoch <> t.epoch then begin
    t.epoch <- epoch;
    push t (build ())
  end
  else push_slot t t.ring.((t.count - 1) mod Array.length t.ring)

let view_at t r =
  if r < 0 || r >= t.count then None
  else if
    (* Visible iff at least [current] rounds old relative to the current
       round (count - 1). *)
    t.count - 1 - r < t.current
  then None
  else if t.count - r > Array.length t.ring then None
  else t.ring.(r mod Array.length t.ring)

let view t =
  let r = t.count - 1 - t.current in
  if r < 0 then None else view_at t r

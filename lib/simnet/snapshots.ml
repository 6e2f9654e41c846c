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
  rng : Prng.Stream.t option;
  (* Ring of the last [max lateness + 1] snapshots; older ones can never be
     the newest-visible again but [view_at] may still want a small window,
     so we keep exactly max lateness + 1. *)
  mutable ring : 'a option array;
  mutable count : int;
  (* Lateness in force for the current round, redrawn on every [push]. *)
  mutable current : int;
}

let create ~lateness =
  if lateness < 0 then invalid_arg "Snapshots.create: negative lateness";
  {
    dist = Fixed lateness;
    rng = None;
    ring = Array.make (lateness + 1) None;
    count = 0;
    current = lateness;
  }

let create_drawn ~staleness ~rng =
  (match staleness with
  | Fixed n when n < 0 -> invalid_arg "Snapshots.create_drawn: negative"
  | Mixed f when (not (Float.is_finite f)) || f < 0.0 ->
      invalid_arg "Snapshots.create_drawn: bad expected lateness"
  | Uniform (lo, hi) when lo < 0 || lo > hi ->
      invalid_arg "Snapshots.create_drawn: bad range"
  | _ -> ());
  let max_l = staleness_max staleness in
  {
    dist = staleness;
    rng = (match staleness with Fixed _ -> None | _ -> Some rng);
    ring = Array.make (max_l + 1) None;
    count = 0;
    current = max_l;
  }

let staleness t = t.dist
let current_lateness t = t.current

let draw t =
  match (t.dist, t.rng) with
  | Fixed n, _ -> n
  | Mixed f, Some rng ->
      let base = int_of_float (Float.floor f) in
      let frac = f -. Float.of_int base in
      base + (if frac > 0.0 && Prng.Stream.bernoulli rng frac then 1 else 0)
  | Uniform (lo, hi), Some rng -> Prng.Stream.int_in rng lo hi
  | _, None -> staleness_max t.dist

let push t snap =
  t.ring.(t.count mod Array.length t.ring) <- Some snap;
  t.count <- t.count + 1;
  t.current <- draw t

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

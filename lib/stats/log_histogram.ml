(* HdrHistogram-style indexing with a fixed precision: values below
   [sub_buckets] get exact cells; octave [o] >= sub_bits is split into
   [sub_buckets] linear cells of width 2^(o - sub_bits). *)

let sub_bits = 5
let sub_buckets = 1 lsl sub_bits

type t = {
  mutable counts : int array;  (* indexed by cell, grown on demand *)
  mutable total : int;
  mutable max_obs : int;
}

let create () = { counts = Array.make sub_buckets 0; total = 0; max_obs = 0 }

let msb v =
  (* position of the highest set bit; v >= 1 *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let cell_of v =
  if v < sub_buckets then v
  else
    let shift = msb v - sub_bits in
    (shift * sub_buckets) + (v lsr shift)

let bounds_of i =
  if i < sub_buckets then (i, i)
  else
    let shift = (i / sub_buckets) - 1 in
    let scaled = i - (shift * sub_buckets) in
    (scaled lsl shift, ((scaled + 1) lsl shift) - 1)

let ensure t i =
  let cap = Array.length t.counts in
  if i >= cap then begin
    let counts = Array.make (max (i + 1) (2 * cap)) 0 in
    Array.blit t.counts 0 counts 0 cap;
    t.counts <- counts
  end

let add_many t v k =
  if v < 0 then invalid_arg "Log_histogram.add: negative value";
  if k < 0 then invalid_arg "Log_histogram.add_many: negative count";
  if k > 0 then begin
    let i = cell_of v in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + k;
    t.total <- t.total + k;
    if v > t.max_obs then t.max_obs <- v
  end

let add t v = add_many t v 1

let total t = t.total

let percentile t p =
  if t.total = 0 then invalid_arg "Log_histogram.percentile: empty histogram";
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    invalid_arg "Log_histogram.percentile: p outside [0, 1]";
  (* Rank of the selected order statistic, clamped to [1, total]: p = 0
     must select the first observation (not an empty cell 0, whose upper
     bound is 0) and p = 1 the last, never a phantom past-the-end one. *)
  let target =
    Float.min (float_of_int t.total) (Float.max 1.0 (p *. float_of_int t.total))
  in
  let n = Array.length t.counts in
  let rec go i acc =
    if i >= n then n - 1 (* unreachable: target <= total; float safety net *)
    else
      let acc = acc + t.counts.(i) in
      if t.counts.(i) > 0 && float_of_int acc >= target then i
      else go (i + 1) acc
  in
  let _, hi = bounds_of (go 0 0) in
  min hi t.max_obs

let mean t =
  if t.total = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then
          let lo, hi = bounds_of i in
          let mid = (float_of_int lo +. float_of_int hi) /. 2.0 in
          sum := !sum +. (float_of_int c *. mid))
      t.counts;
    !sum /. float_of_int t.total
  end

let buckets t =
  let out = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bounds_of i in
        out := (lo, hi, c) :: !out)
    t.counts;
  List.rev !out

let merge_into ~into src =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure into i;
        into.counts.(i) <- into.counts.(i) + c
      end)
    src.counts;
  into.total <- into.total + src.total;
  if src.max_obs > into.max_obs then into.max_obs <- src.max_obs

let merge a b =
  let out = create () in
  merge_into ~into:out a;
  merge_into ~into:out b;
  out

let equal a b =
  let len = max (Array.length a.counts) (Array.length b.counts) in
  let cell h i = if i < Array.length h.counts then h.counts.(i) else 0 in
  let rec cells i = i >= len || (cell a i = cell b i && cells (i + 1)) in
  a.total = b.total && a.max_obs = b.max_obs && cells 0

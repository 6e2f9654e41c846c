
(* Knuth's method: multiply uniforms until the product drops below
   exp(-lambda).  Past lambda ~ 745, exp(-lambda) underflows to 0 and the
   loop would only stop when the product does, capping the draw; so a
   large lambda is drawn as a sum of independent Poisson pieces of at most
   [poisson_piece] each (a sum of Poissons is Poisson in the summed mean).
   A draw at lambda <= [poisson_piece] is one Knuth draw. *)
let poisson_piece = 500.0

let knuth s lambda =
  let l = exp (-.lambda) in
  let rec go k p =
    let p = p *. (1.0 -. Stream.float s 1.0) in
    if p <= l then k else go (k + 1) p
  in
  go 0 1.0

let poisson s lambda =
  if lambda < 0. then invalid_arg "Dist.poisson: lambda < 0";
  if not (Float.is_finite lambda) then
    invalid_arg "Dist.poisson: lambda not finite";
  let total = ref 0 and left = ref lambda in
  while !left > poisson_piece do
    total := !total + knuth s poisson_piece;
    left := !left -. poisson_piece
  done;
  !total + knuth s !left

type zipf_table = float array

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf_table: n <= 0";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  cum

(* Binary search for the smallest index with cum.(i) > u: O(log n). *)
let zipf_draw st table =
  let n = Array.length table in
  let u = Stream.float st table.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo + 1

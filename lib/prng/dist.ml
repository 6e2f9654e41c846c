(* Both draws read their uniforms as [Stream.bits53] ints and do the float
   arithmetic here, where it stays unboxed: [Stream.float] would box every
   uniform it returns (the dev profile inlines nothing across modules). *)
let[@inline] unit s = float_of_int (Stream.bits53 s) *. 0x1p-53

(* Knuth's method: multiply uniforms until the product drops below
   exp(-lambda).  Past lambda ~ 745, exp(-lambda) underflows to 0 and the
   loop would only stop when the product does, capping the draw; so a
   large lambda is drawn as a sum of independent Poisson pieces of at most
   [poisson_piece] each (a sum of Poissons is Poisson in the summed mean).
   A draw at lambda <= [poisson_piece] is one Knuth draw.  [knuth] is
   inlined into [poisson], so its float argument is never boxed. *)
let poisson_piece = 500.0

let[@inline] knuth s lambda =
  let l = exp (-.lambda) in
  let k = ref 0 and p = ref (1.0 -. unit s) in
  while !p > l do
    incr k;
    p := !p *. (1.0 -. unit s)
  done;
  !k

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

(* [cum.(i)] is the total weight of ranks 1 .. i + 1.  A draw takes
   u = [total *. (r *. 2^-53)] for a 53-bit [r], as [Stream.float] would,
   and returns the smallest i with [cum.(i) > u] (n - 1 if there is none,
   when rounding lands u on the total), as a binary search would.  The
   guide table cuts the search short: [r]'s top [bits] bits pick one of
   2^[bits] >= n buckets, and [guide.(j)] is the answer for the smallest
   u of bucket j, so the answer for any u of the bucket is at or after
   it.  With at least n buckets for n weights, the forward scan takes at
   most one step on average. *)
type zipf_table = { cum : float array; guide : int array; shift : int }

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf_table: n <= 0";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let shift = 53 - !bits and total = cum.(n - 1) in
  (* one merged pass: the buckets' smallest u's ascend, so the answer
     pointer only moves forward *)
  let guide = Array.make (1 lsl !bits) 0 in
  let i = ref 0 in
  for j = 0 to Array.length guide - 1 do
    let u = total *. (float_of_int (j lsl shift) *. 0x1p-53) in
    while !i < n - 1 && cum.(!i) <= u do
      incr i
    done;
    guide.(j) <- !i
  done;
  { cum; guide; shift }

let zipf_draw st { cum; guide; shift } =
  let last = Array.length cum - 1 in
  let r = Stream.bits53 st in
  let u = cum.(last) *. (float_of_int r *. 0x1p-53) in
  let i = ref guide.(r lsr shift) in
  while !i < last && cum.(!i) <= u do
    incr i
  done;
  !i + 1

(* The state words s0..s3 live at byte offsets 0, 8, 16, 24 of a 32-byte
   buffer rather than in mutable int64 fields: a field store boxes its
   word, a [Bytes.set_int64_le] does not, so a step allocates nothing. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i x = Bytes.set_int64_le t (8 * i) x

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  make s0 s1 s2 s3

let of_seed seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 outputs are never all zero for any seed in practice, but the
     invariant is cheap to enforce. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 0L 0L 0L
  else make s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] step t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let next t = step t

(* Draw 63 nonnegative bits and reject the final incomplete block of size
   2^63 mod bound, so the result is exactly uniform. *)
let rec draw_below t bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (step t) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub b 1L) then
    draw_below t bound
  else Int64.to_int v

(* For bound = 2^k the last block is complete, so no draw is rejected and
   r mod 2^k is r land (2^k - 1): the same result without a division. *)
let below t bound =
  if bound <= 0 then invalid_arg "Xoshiro256.below: bound <= 0";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.shift_right_logical (step t) 1) land (bound - 1)
  else draw_below t bound

let bool t = Int64.logand (step t) 1L = 1L

let float t bound =
  (* 53 random bits mapped to [0,1), scaled. *)
  let r = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  bound *. (r *. 0x1p-53)

let jump_constants = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
                        0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun c ->
      for b = 0 to 63 do
        if Int64.(logand c (shift_left 1L b)) <> 0L then
          for i = 0 to 3 do
            set acc i (Int64.logxor (get acc i) (get t i))
          done;
        ignore (step t)
      done)
    jump_constants;
  Bytes.blit acc 0 t 0 32

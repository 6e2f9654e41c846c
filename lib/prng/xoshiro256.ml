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

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let check_words name ~width b ~pos ~len =
  if width <> 2 && width <> 4 then invalid_arg (name ^ ": width not 2 or 4");
  if pos < 0 || len < 0 || pos > (Bytes.length b / width) - len then
    invalid_arg (name ^ ": range out of bounds")

(* Word [i] of a buffer of [width]-byte little-endian words.  Both kernels
   call these with the width as a plain argument, so they inline to a
   predictable branch. *)
let[@inline] get_word width b i =
  if width = 2 then Bytes.get_uint16_le b (2 * i)
  else Int32.to_int (Bytes.get_int32_le b (4 * i))

let[@inline] set_word width b i x =
  if width = 2 then Bytes.set_uint16_le b (2 * i) x
  else Bytes.set_int32_le b (4 * i) (Int32.of_int x)

(* The bulk kernels keep s0..s3 in local mutable int64s for the whole call
   (the native compiler holds them unboxed; a helper taking them would box
   them, so each kernel spells out the step of [step]).  Each step and each
   rejection is the one [below] makes, so [t] ends where the per-call loop
   leaves it.  Hoisting the bound's tests out of [fill_words]'s loop is
   what keeps it a separate loop from [shuffle_tail_words]'s. *)
let fill_words t ~width table b ~pos ~len =
  let name = "Xoshiro256.fill_words" in
  check_words name ~width b ~pos ~len;
  let bound = Array.length table in
  if bound = 0 then invalid_arg (name ^ ": empty table");
  let bits = (8 * width) - if width = 2 then 0 else 1 in
  for i = 0 to bound - 1 do
    if table.(i) < 0 || table.(i) lsr bits <> 0 then
      invalid_arg (Printf.sprintf "%s: table entry outside [0, 2^%d)" name bits)
  done;
  let s0 = ref (get t 0) and s1 = ref (get t 1) in
  let s2 = ref (get t 2) and s3 = ref (get t 3) in
  let pow2 = bound land (bound - 1) = 0 and bl = Int64.of_int bound in
  let mask = Int64.sub bl 1L in
  let limit = Int64.sub Int64.max_int mask in
  for w = pos to pos + len - 1 do
    let drawing = ref true in
    while !drawing do
      let x0 = !s0 and x1 = !s1 in
      let r =
        Int64.shift_right_logical (Int64.mul (rotl (Int64.mul x1 5L) 7) 9L) 1
      in
      let x2 = Int64.logxor !s2 x0 and x3 = Int64.logxor !s3 x1 in
      s1 := Int64.logxor x1 x2;
      s0 := Int64.logxor x0 x3;
      s2 := Int64.logxor x2 (Int64.shift_left x1 17);
      s3 := rotl x3 45;
      if pow2 then begin
        set_word width b w table.(Int64.to_int (Int64.logand r mask));
        drawing := false
      end
      else
        let v = Int64.rem r bl in
        if Int64.sub r v <= limit then begin
          set_word width b w table.(Int64.to_int v);
          drawing := false
        end
    done
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3

let shuffle_tail_words t ~width b ~pos ~len ~count =
  check_words "Xoshiro256.shuffle_tail_words" ~width b ~pos ~len;
  if count < 0 || count > len then
    invalid_arg "Xoshiro256.shuffle_tail_words: count outside [0, len]";
  let s0 = ref (get t 0) and s1 = ref (get t 1) in
  let s2 = ref (get t 2) and s3 = ref (get t 3) in
  for x = 0 to count - 1 do
    let bound = len - x in
    let bl = Int64.of_int bound in
    let limit = Int64.sub Int64.max_int (Int64.sub bl 1L) in
    let j = ref (-1) in
    while !j < 0 do
      let x0 = !s0 and x1 = !s1 in
      let r =
        Int64.shift_right_logical (Int64.mul (rotl (Int64.mul x1 5L) 7) 9L) 1
      in
      let x2 = Int64.logxor !s2 x0 and x3 = Int64.logxor !s3 x1 in
      s1 := Int64.logxor x1 x2;
      s0 := Int64.logxor x0 x3;
      s2 := Int64.logxor x2 (Int64.shift_left x1 17);
      s3 := rotl x3 45;
      if bound land (bound - 1) = 0 then j := Int64.to_int r land (bound - 1)
      else
        let v = Int64.rem r bl in
        if Int64.sub r v <= limit then j := Int64.to_int v
    done;
    let p = pos + !j and last = pos + len - 1 - x in
    let v = get_word width b p in
    set_word width b p (get_word width b last);
    set_word width b last v
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3

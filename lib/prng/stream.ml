type t = {
  gen : Xoshiro256.t;
  (* Source of child seeds; kept separate from [gen] so that drawing random
     values and splitting never interleave state. *)
  splitter : Splitmix64.t;
}

let of_seed seed =
  {
    gen = Xoshiro256.of_seed seed;
    splitter = Splitmix64.create (Splitmix64.mix (Int64.lognot seed));
  }

let split t = of_seed (Splitmix64.next t.splitter)

let split_n t k = Array.init k (fun _ -> split t)

let bits64 t = Xoshiro256.next t.gen

let int t bound =
  if bound <= 0 then invalid_arg "Stream.int: bound <= 0";
  Xoshiro256.below t.gen bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Stream.int_in: empty range";
  lo + int t (hi - lo + 1)

let fill_words t ~width table b ~pos ~len =
  Xoshiro256.fill_words t.gen ~width table b ~pos ~len

let shuffle_tail_words t ~width b ~pos ~len ~count =
  Xoshiro256.shuffle_tail_words t.gen ~width b ~pos ~len ~count

let bits53 t = Xoshiro256.bits53 t.gen

(* 53 random bits mapped to [0, 1).  Module-local, so the float stays
   unboxed in [bernoulli]; only [float]'s result is boxed. *)
let[@inline] unit t = float_of_int (Xoshiro256.bits53 t.gen) *. 0x1p-53

let float t bound = bound *. unit t

let bool t = Xoshiro256.bool t.gen

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit t < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_distinct t n ~k =
  if k < 0 || k > n then invalid_arg "Stream.sample_distinct";
  if 3 * k >= n then begin
    (* Dense case: partial Fisher–Yates. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection into a hash table. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Stream.choose: empty array";
  a.(int t (Array.length a))

type t = { mutable n : int; mutable mean : float }

let create () = { n = 0; mean = 0.0 }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

let add_int t x = add t (float_of_int x)
let mean t = t.mean

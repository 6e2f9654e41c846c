type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let add_int t x = add t (float_of_int x)

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let min t = t.lo
let max t = t.hi

let merge a b =
  if a.n = 0 then
    { n = b.n; mean = b.mean; m2 = b.m2; lo = b.lo; hi = b.hi }
  else if b.n = 0 then
    { n = a.n; mean = a.mean; m2 = a.m2; lo = a.lo; hi = a.hi }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let nf = float_of_int n in
    let mean = a.mean +. (delta *. float_of_int b.n /. nf) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    {
      n;
      mean;
      m2;
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
    }
  end

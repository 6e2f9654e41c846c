let log2f x = Float.log x /. Float.log 2.0

let log2i_ceil n =
  if n < 1 then invalid_arg "Params.log2i_ceil: n < 1";
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  go 0 1

let walk_length ~alpha ~d ~n =
  if d < 5 then invalid_arg "Params.walk_length: d < 5";
  if n < 2 then invalid_arg "Params.walk_length: n < 2";
  if alpha <= 0.0 then invalid_arg "Params.walk_length: alpha <= 0";
  let base = float_of_int d /. 4.0 in
  let len = 2.0 *. alpha *. (log2f (float_of_int n) /. log2f base) in
  max 1 (int_of_float (Float.ceil len))

let iterations_hgraph ~alpha ~d ~n = log2i_ceil (walk_length ~alpha ~d ~n)

let check_eps eps =
  if eps <= 0.0 || eps > 1.0 then invalid_arg "Params: eps must be in (0, 1]"

let schedule growth ~c ~n ~iters =
  if c <= 0.0 then invalid_arg "Params.schedule: c <= 0";
  if iters < 0 then invalid_arg "Params.schedule: negative iterations";
  let logn = Float.max 1.0 (log2f (float_of_int n)) in
  Array.init (iters + 1) (fun i ->
      let m = (growth ** float_of_int (iters - i)) *. c *. logn in
      max 1 (int_of_float (Float.ceil m)))

let schedule_hgraph ~eps ~c ~n ~t =
  check_eps eps;
  schedule (2.0 +. eps) ~c ~n ~iters:t

let iterations_hypercube ~d =
  if d < 1 then invalid_arg "Params.iterations_hypercube: d < 1";
  log2i_ceil d

let schedule_hypercube ~eps ~c ~n ~iters =
  check_eps eps;
  schedule (1.0 +. eps) ~c ~n ~iters

let dos_dimension ~c ~n =
  if c <= 0.0 then invalid_arg "Params.dos_dimension: c <= 0";
  if n < 2 then invalid_arg "Params.dos_dimension: n < 2";
  let target = float_of_int n /. (c *. Float.max 1.0 (log2f (float_of_int n))) in
  let rec go d = if float_of_int (1 lsl (d + 1)) <= target then go (d + 1) else d in
  max 1 (go 0)

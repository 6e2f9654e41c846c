let tv_from_uniform p =
  let n = Array.length p in
  if n = 0 then invalid_arg "Distance.tv_from_uniform: empty";
  let u = 1.0 /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. abs_float (p.(i) -. u)
  done;
  0.5 *. !acc

let tv_counts_uniform counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else
    let tf = float_of_int total in
    tv_from_uniform (Array.map (fun c -> float_of_int c /. tf) counts)

let expected_tv_noise_floor ~samples ~cells =
  (* For k samples over m uniform cells, E|emp_i - 1/m| ~ sqrt(2/(pi k m)) per
     cell (normal approximation), so TV ~ (m/2) sqrt(2/(pi k m))
     = sqrt(m / (2 pi k)). *)
  sqrt (float_of_int cells /. (2.0 *. Float.pi *. float_of_int samples))

type t = { k : int; d : int; count : int; pow : int array }

let create ~k ~d =
  if k < 2 then invalid_arg "Kary_hypercube.create: k < 2";
  if d < 1 then invalid_arg "Kary_hypercube.create: d < 1";
  let pow = Array.make (d + 1) 1 in
  for i = 1 to d do
    pow.(i) <- pow.(i - 1) * k;
    if pow.(i) > 1 lsl 26 then
      invalid_arg "Kary_hypercube.create: too many nodes"
  done;
  { k; d; count = pow.(d); pow }

let k t = t.k
let d t = t.d
let node_count t = t.count

let check t v name =
  if v < 0 || v >= t.count then
    invalid_arg ("Kary_hypercube." ^ name ^ ": bad node")

let coord t v i =
  check t v "coord";
  if i < 0 || i >= t.d then invalid_arg "Kary_hypercube.coord: bad index";
  v / t.pow.(i) mod t.k

let with_coord t v i c =
  check t v "with_coord";
  if i < 0 || i >= t.d then invalid_arg "Kary_hypercube.with_coord: bad index";
  if c < 0 || c >= t.k then invalid_arg "Kary_hypercube.with_coord: bad digit";
  let old = v / t.pow.(i) mod t.k in
  v + ((c - old) * t.pow.(i))

type t = { d : int }

let create d =
  if d <= 0 || d > 26 then invalid_arg "Hypercube.create: need 0 < d <= 26";
  { d }

let dimension t = t.d
let node_count t = 1 lsl t.d

let contains t v = v >= 0 && v < node_count t

let check t v name =
  if not (contains t v) then invalid_arg ("Hypercube." ^ name ^ ": bad node")

let flip t v i =
  check t v "flip";
  if i < 0 || i >= t.d then invalid_arg "Hypercube.flip: bad dimension";
  v lxor (1 lsl i)

let neighbors t v =
  check t v "neighbors";
  Array.init t.d (fun i -> v lxor (1 lsl i))

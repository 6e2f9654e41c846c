type t = {
  n : int;
  succ : int array array; (* succ.(c).(v) *)
  pred : int array array;
}

let is_hamilton_cycle succ =
  let n = Array.length succ in
  n >= 3
  && Array.for_all (fun v -> v >= 0 && v < n) succ
  &&
  (* Follow the cycle from 0; it must return to 0 after exactly n steps
     having visited every node once. *)
  let seen = Array.make n false in
  let rec go v steps =
    if seen.(v) then v = 0 && steps = n
    else begin
      seen.(v) <- true;
      go succ.(v) (steps + 1)
    end
  in
  go 0 0

let pred_of_succ succ =
  let n = Array.length succ in
  let pred = Array.make n 0 in
  Array.iteri (fun v s -> pred.(s) <- v) succ;
  pred

let of_cycles succs =
  let k = Array.length succs in
  if k = 0 then invalid_arg "Hgraph.of_cycles: no cycles";
  let n = Array.length succs.(0) in
  Array.iter
    (fun s ->
      if Array.length s <> n then
        invalid_arg "Hgraph.of_cycles: cycles over different node sets";
      if not (is_hamilton_cycle s) then
        invalid_arg "Hgraph.of_cycles: not a Hamilton cycle")
    succs;
  {
    n;
    succ = Array.map Array.copy succs;
    pred = Array.map pred_of_succ succs;
  }

let random_cycle rng n =
  let p = Prng.Stream.permutation rng n in
  let succ = Array.make n 0 in
  for i = 0 to n - 1 do
    succ.(p.(i)) <- p.((i + 1) mod n)
  done;
  succ

let random rng ~n ~d =
  if n < 3 then invalid_arg "Hgraph.random: n < 3";
  if d < 2 || d mod 2 <> 0 then invalid_arg "Hgraph.random: d must be even >= 2";
  let k = d / 2 in
  let succ = Array.init k (fun _ -> random_cycle rng n) in
  { n; succ; pred = Array.map pred_of_succ succ }

let n t = t.n
let cycles t = Array.length t.succ
let degree t = 2 * cycles t

let check_cycle t c =
  if c < 0 || c >= cycles t then invalid_arg "Hgraph: bad cycle index"

let check_node t v = if v < 0 || v >= t.n then invalid_arg "Hgraph: bad node"

let succ t ~cycle v =
  check_cycle t cycle;
  check_node t v;
  t.succ.(cycle).(v)

let pred t ~cycle v =
  check_cycle t cycle;
  check_node t v;
  t.pred.(cycle).(v)

let succ_array t ~cycle =
  check_cycle t cycle;
  Array.copy t.succ.(cycle)

let neighbor t v e =
  check_node t v;
  if e < 0 || e >= degree t then invalid_arg "Hgraph: bad edge";
  let c = e / 2 in
  if e land 1 = 0 then t.succ.(c).(v) else t.pred.(c).(v)

let random_neighbor t rng v = neighbor t v (Prng.Stream.int rng (degree t))

let to_graph t =
  let g = Graph.create ~n:t.n in
  Array.iter
    (fun succ -> Array.iteri (fun v s -> Graph.add_edge g v s) succ)
    t.succ;
  g

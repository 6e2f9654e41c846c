type round_summary = {
  round : int;
  msgs : int;
  bits : int;
  max_node_bits : int;
  max_node_msgs : int;
}

type t = {
  node_bits : int array;
  node_msgs : int array;
  mutable touched : int list; (* nodes with non-zero counters this round *)
  mutable round : int;
  mutable total_msgs : int;
  mutable total_bits : int;
  mutable max_node_bits_ever : int;
  mutable cur_msgs : int;
  mutable cur_bits : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Metrics.create: n <= 0";
  {
    node_bits = Array.make n 0;
    node_msgs = Array.make n 0;
    touched = [];
    round = 0;
    total_msgs = 0;
    total_bits = 0;
    max_node_bits_ever = 0;
    cur_msgs = 0;
    cur_bits = 0;
  }

let touch t node =
  if t.node_bits.(node) = 0 && t.node_msgs.(node) = 0 then
    t.touched <- node :: t.touched

let on_send t ~node ~bits =
  touch t node;
  t.node_bits.(node) <- t.node_bits.(node) + bits;
  t.node_msgs.(node) <- t.node_msgs.(node) + 1;
  t.cur_bits <- t.cur_bits + bits

let on_recv t ~node ~bits =
  touch t node;
  t.node_bits.(node) <- t.node_bits.(node) + bits;
  t.node_msgs.(node) <- t.node_msgs.(node) + 1;
  t.cur_bits <- t.cur_bits + bits;
  t.cur_msgs <- t.cur_msgs + 1

let finish_round t =
  let max_bits = ref 0 and max_msgs = ref 0 in
  List.iter
    (fun node ->
      if t.node_bits.(node) > !max_bits then max_bits := t.node_bits.(node);
      if t.node_msgs.(node) > !max_msgs then max_msgs := t.node_msgs.(node);
      t.node_bits.(node) <- 0;
      t.node_msgs.(node) <- 0)
    t.touched;
  t.touched <- [];
  let summary =
    {
      round = t.round;
      msgs = t.cur_msgs;
      bits = t.cur_bits;
      max_node_bits = !max_bits;
      max_node_msgs = !max_msgs;
    }
  in
  t.total_msgs <- t.total_msgs + t.cur_msgs;
  t.total_bits <- t.total_bits + t.cur_bits;
  if !max_bits > t.max_node_bits_ever then t.max_node_bits_ever <- !max_bits;
  t.round <- t.round + 1;
  t.cur_msgs <- 0;
  t.cur_bits <- 0;
  summary

let rounds t = t.round
let total_msgs t = t.total_msgs
let total_bits t = t.total_bits
let max_node_bits_ever t = t.max_node_bits_ever

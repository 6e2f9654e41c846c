type t = {
  samples : int array array;
  rounds : int;
  walk_length : int;
  schedule : int array;
  underflows : int;
  retries : int;
  escalations : int;
  max_round_node_bits : int;
  total_bits : int;
}

let samples_per_node t =
  Array.fold_left (fun acc s -> min acc (Array.length s)) max_int t.samples

type tally = {
  load : int array;
  msg_bits : int;
  trace : Simnet.Trace.t;
  mutable total : int;
  mutable max_node : int;
}

let tally ?(index_bits = 0) ~n trace =
  let msg_bits =
    Simnet.Msg_size.(ids_msg ~id_bits:(id_bits n) ~count:1) + index_bits
  in
  { load = Array.make n 0; msg_bits; trace; total = 0; max_node = 0 }

let load t = t.load

let finish_round t ~round ~msgs =
  let busiest = ref 0 in
  for v = 0 to Array.length t.load - 1 do
    if t.load.(v) > !busiest then busiest := t.load.(v);
    t.load.(v) <- 0
  done;
  let bits = 2 * msgs * t.msg_bits and node_bits = !busiest * t.msg_bits in
  t.total <- t.total + bits;
  t.max_node <- max t.max_node node_bits;
  if Simnet.Trace.enabled t.trace then
    Simnet.Trace.emit t.trace
      (Simnet.Trace.Round
         { round; msgs; bits; max_node_bits = node_bits;
           max_node_msgs = !busiest; blocked = 0 })

let result t ~samples ~rounds ~walk_length ~schedule ~underflows =
  { samples; rounds; walk_length; schedule; underflows; retries = 0;
    escalations = 0; max_round_node_bits = t.max_node; total_bits = t.total }

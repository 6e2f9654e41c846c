type bench = { rounds : int; total_bits : int; max_node_bits : int }

let bench_zero = { rounds = 0; total_bits = 0; max_node_bits = 0 }

let bench_add a b =
  {
    rounds = a.rounds + b.rounds;
    total_bits = a.total_bits + b.total_bits;
    max_node_bits = max a.max_node_bits b.max_node_bits;
  }

let bench_sum = List.fold_left bench_add bench_zero
let rounds k = { bench_zero with rounds = k }
let bits b = { bench_zero with total_bits = b }
let node_bits b = { bench_zero with max_node_bits = b }

let bench_pairs b =
  [
    ("rounds", Simnet.Trace.Int b.rounds);
    ("total_bits", Simnet.Trace.Int b.total_bits);
    ("max_node_bits", Simnet.Trace.Int b.max_node_bits);
  ]

let bench_of_pairs pairs =
  let int k =
    match List.assoc_opt k pairs with
    | Some (Simnet.Trace.Int i) -> Some i
    | _ -> None
  in
  match (int "rounds", int "total_bits", int "max_node_bits") with
  | Some rounds, Some total_bits, Some max_node_bits ->
      Some { rounds; total_bits; max_node_bits }
  | _ -> None

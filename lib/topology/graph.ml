type t = { adj : Intvec.t array }

let create ~n =
  if n <= 0 then invalid_arg "Graph.create: n <= 0";
  { adj = Array.init n (fun _ -> Intvec.create ()) }

let n t = Array.length t.adj

let check_node t v name =
  if v < 0 || v >= n t then invalid_arg ("Graph." ^ name ^ ": node out of range")

let add_edge t u v =
  check_node t u "add_edge";
  check_node t v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  Intvec.push t.adj.(u) v;
  Intvec.push t.adj.(v) u

let degree t v =
  check_node t v "degree";
  Intvec.length t.adj.(v)

let iter_neighbors t v f =
  check_node t v "iter_neighbors";
  Intvec.iter f t.adj.(v)

let neighbors t v =
  check_node t v "neighbors";
  Intvec.to_array t.adj.(v)

let is_regular t =
  let nn = n t in
  if nn = 0 then None
  else begin
    let d = degree t 0 in
    let ok = ref true in
    for v = 1 to nn - 1 do
      if degree t v <> d then ok := false
    done;
    if !ok then Some d else None
  end

let induced_mask t ~keep =
  let g = create ~n:(n t) in
  for u = 0 to n t - 1 do
    if keep u then
      iter_neighbors t u (fun v ->
          (* Visit each undirected edge once: from its smaller endpoint. *)
          if u < v && keep v then add_edge g u v)
  done;
  g

let edges t =
  let out = ref [] in
  let count = ref 0 in
  for u = 0 to n t - 1 do
    iter_neighbors t u (fun v ->
        if u < v then begin
          out := (u, v) :: !out;
          incr count
        end)
  done;
  (* Parallel edges appear once per multiplicity from the smaller endpoint;
     edges within equal endpoints are impossible (no self-loops). *)
  Array.of_list (List.rev !out)

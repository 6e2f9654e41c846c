let always_alive _ = true

let distances ?(alive = always_alive) g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  if src < 0 || src >= n then invalid_arg "Bfs.distances: src out of range";
  if alive src then begin
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.push src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) < 0 && alive v then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v queue
          end)
    done
  end;
  dist

let first_alive alive n =
  let rec go i = if i >= n then None else if alive i then Some i else go (i + 1) in
  go 0

let is_connected ?(alive = always_alive) g =
  let n = Graph.n g in
  match first_alive alive n with
  | None -> true
  | Some src ->
      let dist = distances ~alive g src in
      let ok = ref true in
      for v = 0 to n - 1 do
        if alive v && dist.(v) < 0 then ok := false
      done;
      !ok

let components ?(alive = always_alive) g =
  let n = Graph.n g in
  let seen = Array.make n false in
  let comps = ref [] in
  for src = 0 to n - 1 do
    if alive src && not seen.(src) then begin
      let members = Intvec.create () in
      let queue = Queue.create () in
      seen.(src) <- true;
      Queue.push src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Intvec.push members u;
        Graph.iter_neighbors g u (fun v ->
            if alive v && not seen.(v) then begin
              seen.(v) <- true;
              Queue.push v queue
            end)
      done;
      comps := Intvec.to_array members :: !comps
    end
  done;
  List.sort (fun a b -> compare (Array.length b) (Array.length a)) !comps

let diameter_double_sweep g rng =
  let n = Graph.n g in
  let best = ref 0 in
  (try
     for _ = 1 to 4 do
       let src = Prng.Stream.int rng n in
       let d1 = distances g src in
       (* Farthest node from src. *)
       let far = ref src and fard = ref 0 in
       Array.iteri
         (fun v d ->
           if d < 0 then raise Exit;
           if d > !fard then begin
             fard := d;
             far := v
           end)
         d1;
       let d2 = distances g !far in
       Array.iter
         (fun d ->
           if d < 0 then raise Exit;
           if d > !best then best := d)
         d2
     done
   with Exit -> best := -1);
  !best

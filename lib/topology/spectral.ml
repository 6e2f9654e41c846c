let apply_adjacency g x y =
  let n = Graph.n g in
  Array.fill y 0 n 0.0;
  for u = 0 to n - 1 do
    let xu = x.(u) in
    Graph.iter_neighbors g u (fun v -> y.(v) <- y.(v) +. xu)
  done

let deflate_ones x =
  let n = Array.length x in
  let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
  for i = 0 to n - 1 do
    x.(i) <- x.(i) -. mean
  done

let norm x = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x)

let second_eigenvalue ?(iterations = 100) g rng =
  (match Graph.is_regular g with
  | Some _ -> ()
  | None -> invalid_arg "Spectral.second_eigenvalue: graph not regular");
  let n = Graph.n g in
  let x = Array.init n (fun _ -> Prng.Stream.float rng 2.0 -. 1.0) in
  let y = Array.make n 0.0 in
  deflate_ones x;
  let nx = norm x in
  if nx = 0.0 then 0.0
  else begin
    Array.iteri (fun i v -> x.(i) <- v /. nx) x;
    let lambda = ref 0.0 in
    for _ = 1 to iterations do
      apply_adjacency g x y;
      deflate_ones y;
      let ny = norm y in
      if ny > 0.0 then begin
        lambda := ny;
        for i = 0 to n - 1 do
          x.(i) <- y.(i) /. ny
        done
      end
      else lambda := 0.0
    done;
    !lambda
  end

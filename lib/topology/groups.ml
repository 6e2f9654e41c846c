let members ~groups group_of =
  let count = Array.make groups 0 in
  let ok x = x >= 0 && x < groups in
  Array.iter (fun x -> if ok x then count.(x) <- count.(x) + 1) group_of;
  let rows = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 groups 0;
  Array.iteri
    (fun v x ->
      if ok x then begin
        rows.(x).(count.(x)) <- v;
        count.(x) <- count.(x) + 1
      end)
    group_of;
  rows

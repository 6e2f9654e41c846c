type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Intvec." ^ name ^ ": out of bounds")

let get t i =
  check t i "get";
  t.data.(i)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

let digits v =
  let rec go v n = if v < 10 then n else go (v / 10) (n + 1) in
  go v 1

(* The digits of [v >= 0], least significant at [stop - 1]. *)
let rec write_back b ~stop v =
  Bytes.set b (stop - 1) (Char.unsafe_chr (48 + (v mod 10)));
  if v >= 10 then write_back b ~stop:(stop - 1) (v / 10)

let of_int v =
  if v < 0 then string_of_int v
  else
    let len = digits v in
    let b = Bytes.create len in
    write_back b ~stop:len v;
    Bytes.unsafe_to_string b

let pair c a b =
  if a < 0 || b < 0 then Printf.sprintf "%c%d.%d" c a b
  else
    let la = digits a and lb = digits b in
    let buf = Bytes.create (2 + la + lb) in
    Bytes.set buf 0 c;
    write_back buf ~stop:(1 + la) a;
    Bytes.set buf (1 + la) '.';
    write_back buf ~stop:(2 + la + lb) b;
    Bytes.unsafe_to_string buf

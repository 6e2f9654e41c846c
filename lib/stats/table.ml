type t = {
  title : string;
  columns : string array;
  mutable rows : string array list; (* reversed *)
  mutable notes : string list; (* reversed *)
}

let create ~title ~columns =
  { title; columns = Array.of_list columns; rows = []; notes = [] }

let add_row t cells =
  let n = Array.length t.columns in
  let k = List.length cells in
  if k > n then invalid_arg "Table.add_row: more cells than columns";
  let row = Array.make n "" in
  List.iteri (fun i c -> row.(i) <- c) cells;
  t.rows <- row :: t.rows

let note t s = t.notes <- s :: t.notes

let pp fmt t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.columns in
  let widths = Array.map String.length t.columns in
  List.iter
    (fun row ->
      Array.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let rule () =
    for i = 0 to ncols - 1 do
      Format.fprintf fmt "+%s" (String.make (widths.(i) + 2) '-')
    done;
    Format.fprintf fmt "+@."
  in
  let print_cells cells =
    Array.iteri
      (fun i c -> Format.fprintf fmt "| %s " (pad c widths.(i)))
      cells;
    Format.fprintf fmt "|@."
  in
  Format.fprintf fmt "@.== %s ==@." t.title;
  rule ();
  print_cells t.columns;
  rule ();
  List.iter print_cells rows;
  rule ();
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) (List.rev t.notes)

let print t = pp Format.std_formatter t

let cell_int = string_of_int
let cell_float ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x
let cell_bool b = if b then "yes" else "no"
let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

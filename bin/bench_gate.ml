(* Throughput regression gate over BENCH_engine.json.

   Usage: bench_gate BASELINE FRESH [--n N] [--min-ratio R]

   Reads the curve entries of both files, picks the point at n (default
   65536, the mid-size point, the least noisy on shared CI runners), and
   fails (exit 1) when the fresh
   msgs_per_sec falls below min-ratio (default 0.8) of the committed
   baseline.  The JSON is the bench's own fixed-shape output, so a
   hand-rolled scanner is enough; a malformed or incomplete file is a
   hard error (exit 2), never a silent pass. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* Find `"key":<number>` starting at [from]; returns (value, end position). *)
let number_field s ~from key =
  let probe = Printf.sprintf "\"%s\":" key in
  let plen = String.length probe in
  let limit = String.length s - plen in
  let rec find i =
    if i > limit then None
    else if String.sub s i plen = probe then Some (i + plen)
    else find (i + 1)
  in
  match find from with
  | None -> None
  | Some start ->
      let stop = ref start in
      let is_num c =
        (c >= '0' && c <= '9') || c = '.' || c = '-' || c = 'e' || c = '+'
      in
      while !stop < String.length s && is_num s.[!stop] do
        incr stop
      done;
      Some (float_of_string (String.sub s start (!stop - start)), !stop)

(* The msgs_per_sec of the first curve entry with this n.  Entries are
   flat objects in a fixed key order (n, rounds, msgs_per_sec, ...), so
   scanning n-fields and reading the following msgs_per_sec is faithful.
   A baseline from the older domain sweep lists the domains=1 entry first
   at each n, so the gate still reads it. *)
let curve_rate json ~n =
  let rec scan from =
    match number_field json ~from "n" with
    | None -> None
    | Some (nv, after_n) ->
        if int_of_float nv = n then
          match number_field json ~from:after_n "msgs_per_sec" with
          | Some (r, _) -> Some r
          | None -> None
        else scan after_n
  in
  (* skip the header's top-level "n" *)
  match number_field json ~from:0 "n" with
  | None -> None
  | Some (_, after_header) -> scan after_header

let () =
  let baseline = ref None and fresh = ref None in
  let n = ref 65536 and min_ratio = ref 0.8 in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
        n := int_of_string v;
        parse rest
    | "--min-ratio" :: v :: rest ->
        min_ratio := float_of_string v;
        parse rest
    | path :: rest ->
        (if !baseline = None then baseline := Some path
         else if !fresh = None then fresh := Some path
         else die "bench_gate: unexpected argument %s" path);
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline, fresh =
    match (!baseline, !fresh) with
    | Some b, Some f -> (b, f)
    | _ ->
        die
          "usage: bench_gate BASELINE FRESH [--n N] [--min-ratio R]"
  in
  let rate_of label path =
    match curve_rate (read_file path) ~n:!n with
    | Some r -> r
    | None -> die "bench_gate: no curve entry n=%d in %s (%s)" !n path label
  in
  let base = rate_of "baseline" baseline in
  let now = rate_of "fresh" fresh in
  let ratio = now /. base in
  Printf.printf
    "bench_gate: n=%d baseline=%.0f fresh=%.0f ratio=%.3f (floor %.2f)\n" !n
    base now ratio !min_ratio;
  if ratio < !min_ratio then begin
    Printf.eprintf
      "bench_gate: FAIL — msgs/sec regressed below %.0f%% of the committed \
       baseline\n"
      (100.0 *. !min_ratio);
    exit 1
  end

(* Throughput regression gate over BENCH_engine.json.

   Usage: bench_gate BASELINE FRESH [--n N] [--min-ratio R]

   Reads the curve entries of both files, picks the point at n (default
   65536, the mid-size point, the least noisy on shared CI runners), and
   fails (exit 1) when the fresh
   msgs_per_sec falls below min-ratio (default 0.8) of the committed
   baseline.  It prints the dune profile each file records and also
   fails when both record one and they differ: a dev build (-opaque) and
   a release build are not comparable.  A file from before the profile
   was recorded passes that check.  The JSON is the bench's own
   fixed-shape output, so a hand-rolled scanner is enough; a malformed
   or incomplete file is a hard error (exit 2), never a silent pass. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* The position just past the first `"key":` at or after [from]. *)
let value_start s ~from key =
  let probe = Printf.sprintf "\"%s\":" key in
  let plen = String.length probe in
  let limit = String.length s - plen in
  let rec find i =
    if i > limit then None
    else if String.sub s i plen = probe then Some (i + plen)
    else find (i + 1)
  in
  find from

(* Find `"key":<number>` starting at [from]; returns (value, end position). *)
let number_field s ~from key =
  match value_start s ~from key with
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

(* The value of the first `"key":"<string>"`, if any (no escapes: the
   bench writes plain identifiers). *)
let string_field s key =
  match value_start s ~from:0 key with
  | Some start when start < String.length s && s.[start] = '"' ->
      Option.map
        (fun stop -> String.sub s (start + 1) (stop - start - 1))
        (String.index_from_opt s (start + 1) '"')
  | _ -> None

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
  let base_json = read_file baseline and fresh_json = read_file fresh in
  let rate_of label path json =
    match curve_rate json ~n:!n with
    | Some r -> r
    | None -> die "bench_gate: no curve entry n=%d in %s (%s)" !n path label
  in
  let base = rate_of "baseline" baseline base_json in
  let now = rate_of "fresh" fresh fresh_json in
  let ratio = now /. base in
  let base_profile = string_field base_json "profile"
  and fresh_profile = string_field fresh_json "profile" in
  let show = Option.value ~default:"unrecorded" in
  Printf.printf "bench_gate: profile baseline=%s fresh=%s\n" (show base_profile)
    (show fresh_profile);
  Printf.printf
    "bench_gate: n=%d baseline=%.0f fresh=%.0f ratio=%.3f (floor %.2f)\n" !n
    base now ratio !min_ratio;
  flush stdout;
  (match (base_profile, fresh_profile) with
  | Some b, Some f when b <> f ->
      Printf.eprintf
        "bench_gate: FAIL — the baseline was built under the %s profile and \
         the fresh file under %s; their rates are not comparable\n"
        b f;
      exit 1
  | _ -> ());
  if ratio < !min_ratio then begin
    Printf.eprintf
      "bench_gate: FAIL — msgs/sec regressed below %.0f%% of the committed \
       baseline\n"
      (100.0 *. !min_ratio);
    exit 1
  end

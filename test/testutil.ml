(* Small helpers shared by the test executables. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A fixed-seed stream per test, split so tests do not interfere. *)
let rng ?(seed = 0xC0FFEEL) () = Prng.Stream.of_seed seed

(* Every request [admit] hands out over rounds [0, rounds), in order. *)
let admitted ~rounds admit =
  let out = ref [] in
  for round = 0 to rounds - 1 do
    admit ~round (fun r -> out := r :: !out)
  done;
  Array.of_list (List.rev !out)

(* The Zipf draw as [Prng.Dist] wrote it before it had tables: the
   cumulative weights (cached per (n, s) there), then a binary search on
   one [Stream.float].  [Dist.zipf_draw] must reproduce it draw for draw. *)
let reference_zipf st ~n ~s =
  let table = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    table.(i) <- !acc
  done;
  let u = Prng.Stream.float st table.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo + 1

exception First_event of float

(* Words allocated from calling [run] to the run's first trace event (the
   run-header note, which ends set-up).  Each reading flushes the minor
   heap first, since OCaml 5 counts minor words at collections only.
   Single-domain runs only: the counters are this domain's. *)
let setup_words run =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let trace =
    Simnet.Trace.make
      ~emit:(fun _ -> raise (First_event (words ())))
      ~close:ignore
  in
  let before = words () in
  match run trace with
  | _ -> Alcotest.fail "the run emitted no trace event"
  | exception First_event after -> after -. before

(* The multiset M of the paper's sampling algorithms (Section 3): O(1)
   insertion and uniform extraction by swap-removal.  The reference
   formulations of Algorithms 1 and 2 that the flat samplers are checked
   against are written over it. *)
module Multiset = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 8) () = { data = Array.make (max 1 capacity) 0; len = 0 }
  let size t = t.len
  let clear t = t.len <- 0

  let add t x =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let of_array a = { data = Array.append a [| 0 |]; len = Array.length a }
  let to_array t = Array.sub t.data 0 t.len

  let extract_random t rng =
    if t.len = 0 then None
    else begin
      let i = Prng.Stream.int rng t.len in
      let v = t.data.(i) in
      t.len <- t.len - 1;
      t.data.(i) <- t.data.(t.len);
      Some v
    end

  let peek_random t rng =
    if t.len = 0 then None else Some t.data.(Prng.Stream.int rng t.len)
end

(* An engine inbox slice as an oldest-first (src, msg) list. *)
let inbox_list inbox =
  let acc = ref [] in
  Simnet.Engine.slice_iter (fun ~src msg -> acc := (src, msg) :: !acc) inbox;
  List.rev !acc

(* One engine round whose compute step sees each inbox as a list.  With
   [meter = (metrics, bits)], every delivered message is charged to its
   receiver at [bits msg] and the round is closed with
   [Metrics.finish_round] — the receive half of a metering driver's
   accounting; the sending side charges its own copies. *)
let step ?meter eng f =
  Simnet.Engine.deliver_and_step eng (fun ~round ~me ~inbox ->
      let inbox = inbox_list inbox in
      (match meter with
      | Some (m, bits) ->
          List.iter
            (fun (_, msg) -> Simnet.Metrics.on_recv m ~node:me ~bits:(bits msg))
            inbox
      | None -> ());
      f ~round ~me ~inbox);
  match meter with
  | Some (m, _) -> ignore (Simnet.Metrics.finish_round m)
  | None -> ()

(* Hamming distance between two hypercube labels. *)
let hamming a b =
  let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
  count (a lxor b) 0

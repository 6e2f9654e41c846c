module Hypercube = Topology.Hypercube

type msg =
  | Req of int  (** segment start; the requester is the wire source *)
  | Resp of int * int  (** segment start, sampled supernode *)

type state = {
  d : int;
  iters : int;
  schedule : int array;
  buckets : int array array;  (** segment start -> bucket contents *)
  underflows : int;
  fallbacks : int;
  (* [Some n]: an extraction that finds an empty bucket synthesizes a
     uniform supernode from [0, n) instead of underflowing. *)
  fallback : int option;
}

let samples st =
  (* Bucket 0 after the final install; expose in random order is not
     possible here (no rng) — Group_sim consumers shuffle as needed, and
     the contents are already a uniform multiset. *)
  Array.copy st.buckets.(0)

let underflows st = st.underflows
let fallbacks st = st.fallbacks

(* Draw [count] elements without replacement from [bucket]; returns the
   drawn elements, the remainder, the underflow count and the fallback
   count, all functionally (the input state is shared between proposers).
   With [fallback = Some n], an empty extraction degrades to a fresh
   uniform supernode instead of underflowing — the sample stays uniform,
   it just stops being walk-derived. *)
let draw ?fallback rng bucket count =
  let a = Array.copy bucket and len = ref (Array.length bucket) in
  let drawn = ref [] and missing = ref 0 and degraded = ref 0 in
  for _ = 1 to count do
    match fallback with
    | _ when !len > 0 ->
        (* swap-removal: the last live element fills the drawn slot *)
        let i = Prng.Stream.int rng !len in
        drawn := a.(i) :: !drawn;
        decr len;
        a.(i) <- a.(!len)
    | Some n ->
        incr degraded;
        drawn := Prng.Stream.int rng n :: !drawn
    | None -> incr missing
  done;
  (!drawn, Array.sub a 0 !len, !missing, !degraded)

let left_starts ~d ~iteration =
  let step = 1 lsl iteration and half = 1 lsl (iteration - 1) in
  let rec go s acc =
    if s >= d then List.rev acc
    else go (s + step) (if s + half < d then s :: acc else acc)
  in
  go 0 []

(* Emit the requests of doubling iteration [iteration] (1-based). *)
let send_requests st ~iteration ~rng =
  let mi = st.schedule.(iteration) in
  let buckets = Array.copy st.buckets in
  let underflows = ref st.underflows and degraded = ref st.fallbacks in
  let out = ref [] in
  List.iter
    (fun s ->
      let targets, rest, missing, fb =
        draw ?fallback:st.fallback rng buckets.(s) mi
      in
      buckets.(s) <- rest;
      underflows := !underflows + missing;
      degraded := !degraded + fb;
      List.iter (fun v -> out := (v, Req s) :: !out) targets)
    (left_starts ~d:st.d ~iteration);
  ({ st with buckets; underflows = !underflows; fallbacks = !degraded },
   List.rev !out)

(* Serve the requests of iteration [iteration] from right-sibling buckets. *)
let serve_requests st ~iteration ~inbox ~rng =
  let half = 1 lsl (iteration - 1) in
  let buckets = Array.copy st.buckets in
  let underflows = ref st.underflows and degraded = ref st.fallbacks in
  let out = ref [] in
  List.iter
    (fun (src, m) ->
      match m with
      | Req s -> (
          let drawn, rest, missing, fb =
            draw ?fallback:st.fallback rng buckets.(s + half) 1
          in
          buckets.(s + half) <- rest;
          underflows := !underflows + missing;
          degraded := !degraded + fb;
          match drawn with
          | [ w ] -> out := (src, Resp (s, w)) :: !out
          | _ -> ())
      | Resp _ -> ())
    inbox;
  ({ st with buckets; underflows = !underflows; fallbacks = !degraded },
   List.rev !out)

(* Install the responses of iteration [iteration]: left buckets are rebuilt
   from the received samples, right siblings are consumed. *)
let install_responses st ~iteration ~inbox =
  let half = 1 lsl (iteration - 1) in
  let buckets = Array.copy st.buckets in
  let fresh = Hashtbl.create 8 in
  List.iter
    (fun (_, m) ->
      match m with
      | Resp (s, w) ->
          Hashtbl.replace fresh s
            (w :: Option.value ~default:[] (Hashtbl.find_opt fresh s))
      | Req _ -> ())
    inbox;
  List.iter
    (fun s ->
      buckets.(s) <-
        Array.of_list (Option.value ~default:[] (Hashtbl.find_opt fresh s));
      buckets.(s + half) <- [||])
    (left_starts ~d:st.d ~iteration);
  { st with buckets }

let protocol ?(eps = 0.5) ?(c = 2.0) ?(trace = Simnet.Trace.null)
    ?(fallback = false) ~cube () =
  let d = Hypercube.dimension cube in
  let n = Hypercube.node_count cube in
  let iters = Params.iterations_hypercube ~d in
  let schedule = Params.schedule_hypercube ~eps ~c ~n ~iters in
  let id_bits = Simnet.Msg_size.id_bits n in
  (* [step] runs once per group member per step index; emit each phase span
     once, on the first call for its step index (member iteration order is
     deterministic, so the trace is too). *)
  let last_span = ref (-1) in
  let span_step step_index =
    if Simnet.Trace.enabled trace && !last_span < step_index then begin
      last_span := step_index;
      let name, iteration =
        if step_index = 0 then ("sampling/request", 1)
        else if step_index mod 2 = 1 then
          ("sampling/serve", (step_index + 1) / 2)
        else ("sampling/install", step_index / 2)
      in
      Simnet.Trace.emit trace
        (Simnet.Trace.Span
           {
             name;
             rounds = 1;
             fields =
               [
                 ("step_index", Simnet.Trace.Int step_index);
                 ("iteration", Simnet.Trace.Int iteration);
               ];
           })
    end
  in
  let init ~supernode ~rng =
    let buckets =
      Array.init d (fun j ->
          Array.init schedule.(0) (fun _ ->
              if Prng.Stream.bool rng then Hypercube.flip cube supernode j
              else supernode))
    in
    {
      d;
      iters;
      schedule;
      buckets;
      underflows = 0;
      fallbacks = 0;
      fallback = (if fallback then Some n else None);
    }
  in
  let step ~supernode:_ ~step_index st ~inbox ~rng =
    span_step step_index;
    if step_index mod 2 = 1 then
      (* odd steps serve iteration (step_index + 1) / 2 *)
      serve_requests st ~iteration:((step_index + 1) / 2) ~inbox ~rng
    else begin
      (* even steps install iteration step_index / 2 (step 0 has nothing to
         install), then request the next; with [iters = 0] (d = 1) step 0
         sends nothing and the samples are bucket 0's Phase-1 draws *)
      let k = step_index / 2 in
      let st = if k = 0 then st else install_responses st ~iteration:k ~inbox in
      if k >= st.iters then (st, [])
      else send_requests st ~iteration:(k + 1) ~rng
    end
  in
  {
    Group_sim.init;
    step;
    steps = (2 * iters) + 1;
    state_bits =
      (fun st ->
        let total =
          Array.fold_left (fun a b -> a + Array.length b) 0 st.buckets
        in
        Simnet.Msg_size.header_bits + (total * id_bits));
    msg_bits =
      (fun m ->
        match m with
        | Req _ -> Simnet.Msg_size.header_bits + Simnet.Msg_size.id_bits (max 2 d)
        | Resp _ ->
            Simnet.Msg_size.header_bits
            + Simnet.Msg_size.id_bits (max 2 d)
            + id_bits);
  }

module Kary = Topology.Kary_hypercube
module Msg_size = Simnet.Msg_size
module Trace = Simnet.Trace

(* Ids and bucket indices are stored as [w]-byte little-endian words, w = 2
   when every value a buffer holds fits in 16 bits and 4 otherwise.  The
   width is a plain argument at every access: bound into a closure
   ([let get = get w]) each access would become a call, since the dev
   profile compiles with [-opaque]. *)
let width ~max_value = if max_value < 1 lsl 16 then 2 else 4

let[@inline] get w b i =
  if w = 2 then Bytes.get_uint16_le b (2 * i)
  else Int32.to_int (Bytes.get_int32_le b (4 * i))

let[@inline] set w b i x =
  if w = 2 then Bytes.set_uint16_le b (2 * i) x
  else Bytes.set_int32_le b (4 * i) (Int32.of_int x)

(* Bucket b = u*d + j (node u, coordinate j) is the slice
   plane.(b*m0) .. plane.(b*m0 + mlen.(b) - 1); m0 = schedule.(0) bounds
   every bucket because the schedule decreases.  Iteration i merges the
   segment starting at s (a multiple of 2^i) with its right sibling at
   s + 2^(i-1); a segment without a right sibling persists unchanged.

   Phase 2 swaps each extracted target to the end of the live range, so the
   left bucket keeps the targets it drew in its tail (first draw last) and
   its live prefix evolves exactly as under swap-removal.  A counting sort
   by target then lists each server's requesters in arrival order, and the
   left bucket, its targets read, takes the replies in place.  A right
   sibling's index has lowest set bit i-1, so no later iteration reads it
   and it needs no clearing. *)
let alg2 ~eps ~c ~trace ~rng ~n ~d ~phase1 =
  let iters = Params.iterations_hypercube ~d in
  let schedule = Params.schedule_hypercube ~eps ~c ~n ~iters in
  let m0 = schedule.(0) in
  (* A request carries (requester id, segment index); a response carries
     (sampled id, segment index). *)
  let tally =
    Sampling_result.tally ~index_bits:(Msg_size.id_bits (max 2 d)) ~n trace
  in
  let load = Sampling_result.load tally in
  (* The plane holds node ids, the request buffer bucket indices. *)
  let w = width ~max_value:(n - 1) and wr = width ~max_value:((n * d) - 1) in
  let plane = Bytes.create (w * n * d * m0) and mlen = Array.make (n * d) m0 in
  let left_segments i = ((d - (1 lsl (i - 1)) - 1) lsr i) + 1 in
  let max_requests = ref 0 in
  for i = 1 to iters do
    max_requests := max !max_requests (n * left_segments i * schedule.(i))
  done;
  let reqs = Bytes.create (wr * !max_requests) in
  (* next.(v): during Phase 2 the count of requests to v-1, then v's
     cursor into [reqs], finally the end of v's requests. *)
  let next = Array.make (n + 1) 0 in
  let underflows = ref 0 in
  (* Phase 1: bucket j holds m0 copies of u with coordinate j redrawn. *)
  for u = 0 to n - 1 do
    for j = 0 to d - 1 do
      phase1 ~width:w plane ~pos:(((u * d) + j) * m0) ~len:m0 u j
    done
  done;
  for i = 1 to iters do
    let mi = schedule.(i) and half = 1 lsl (i - 1) and step = 1 lsl i in
    (* Phase 2 (one round): each left segment with a right sibling sends
       m_i requests to nodes drawn from its bucket. *)
    Array.fill next 0 (n + 1) 0;
    let sent = ref 0 in
    for u = 0 to n - 1 do
      let s = ref 0 in
      while !s + half < d do
        let b = (u * d) + !s in
        let base = b * m0 and len = mlen.(b) in
        let e = min mi len in
        underflows := !underflows + mi - e;
        Prng.Stream.shuffle_tail_words rng ~width:w plane ~pos:base ~len
          ~count:e;
        for x = base + len - e to base + len - 1 do
          let v = get w plane x in
          next.(v + 1) <- next.(v + 1) + 1;
          load.(v) <- load.(v) + 1
        done;
        load.(u) <- load.(u) + e;
        sent := !sent + e;
        s := !s + step
      done
    done;
    Sampling_result.finish_round tally ~round:(2 * (i - 1)) ~msgs:!sent;
    for v = 1 to n do
      next.(v) <- next.(v) + next.(v - 1)
    done;
    for u = 0 to n - 1 do
      let s = ref 0 in
      while !s + half < d do
        let b = (u * d) + !s in
        let top = (b * m0) + mlen.(b) - 1 in
        for x = 0 to min mi mlen.(b) - 1 do
          let v = get w plane (top - x) in
          set wr reqs next.(v) b;
          next.(v) <- next.(v) + 1
        done;
        mlen.(b) <- 0;
        s := !s + step
      done
    done;
    (* Phase 3 + 4 (one round): each server answers its requesters in
       arrival order from its right-sibling bucket. *)
    let served = ref 0 and first = ref 0 in
    for v = 0 to n - 1 do
      for q = !first to next.(v) - 1 do
        let b = get wr reqs q in
        let u = b / d in
        let r = (v * d) + (b - (u * d)) + half in
        let rlen = mlen.(r) in
        if rlen = 0 then incr underflows
        else begin
          let rbase = r * m0 in
          let p = rbase + Prng.Stream.int rng rlen in
          let id = get w plane p in
          set w plane p (get w plane (rbase + rlen - 1));
          mlen.(r) <- rlen - 1;
          set w plane ((b * m0) + mlen.(b)) id;
          mlen.(b) <- mlen.(b) + 1;
          load.(v) <- load.(v) + 1;
          load.(u) <- load.(u) + 1;
          incr served
        end
      done;
      first := next.(v)
    done;
    Sampling_result.finish_round tally ~round:((2 * i) - 1) ~msgs:!served
  done;
  (* M is a multiset: expose it in uniformly random order (a free local
     permutation).  Responses arrive grouped by server, and same-server
     responses share the server's already-fixed coordinates; a consumer
     taking a prefix of the arrival order would see correlated samples. *)
  let samples =
    Array.init n (fun u ->
        let base = u * d * m0 and len = mlen.(u * d) in
        Prng.Stream.shuffle_tail_words rng ~width:w plane ~pos:base ~len
          ~count:(max 0 (len - 1));
        let m = Array.make len 0 in
        for x = 0 to len - 1 do
          m.(x) <- get w plane (base + x)
        done;
        m)
  in
  Sampling_result.result tally ~samples ~rounds:(2 * iters) ~walk_length:d
    ~schedule ~underflows:!underflows

(* The d-round token walk: in round [dim] each holder redraws coordinate
   [dim] and forwards the token unless it stays put. *)
let token_walk ~trace ~k ~n ~d ~redraw =
  let tally = Sampling_result.tally ~n trace and msgs = ref 0 in
  let load = Sampling_result.load tally in
  let send ~src ~dst =
    load.(src) <- load.(src) + 1;
    load.(dst) <- load.(dst) + 1;
    incr msgs
  in
  let finish_round round =
    Sampling_result.finish_round tally ~round ~msgs:!msgs;
    msgs := 0
  in
  let origins = Array.init (n * k) (fun j -> j / k) in
  let positions = Array.copy origins in
  for dim = 0 to d - 1 do
    Array.iteri
      (fun j cur ->
        let next = redraw cur dim in
        if next <> cur then begin
          send ~src:cur ~dst:next;
          positions.(j) <- next
        end)
      positions;
    finish_round dim
  done;
  let samples = Array.make n [] in
  Array.iteri
    (fun j endpoint ->
      let origin = origins.(j) in
      send ~src:endpoint ~dst:origin;
      samples.(origin) <- endpoint :: samples.(origin))
    positions;
  finish_round d;
  Sampling_result.result tally
    ~samples:(Array.map Array.of_list samples)
    ~rounds:(d + 1) ~walk_length:d ~schedule:[| k |] ~underflows:0

let redraw_digit cube rng =
  let k = Kary.k cube in
  fun u j -> Kary.with_coord cube u j (Prng.Stream.int rng k)

(* Phase 1 of bucket (u, j): one kernel call draws the m0 digits and maps
   each through the table of u with digit j replaced, rest + digit·k^j. *)
let fill_digit cube rng =
  let k = Kary.k cube in
  let stride = Array.init (Kary.d cube) (fun j -> Kary.with_coord cube 0 j 1) in
  let table = Array.make k 0 in
  fun ~width plane ~pos ~len u j ->
    let rest = Kary.with_coord cube u j 0 and kj = stride.(j) in
    for digit = 0 to k - 1 do
      table.(digit) <- rest + (digit * kj)
    done;
    Prng.Stream.fill_words rng ~width table plane ~pos ~len

let run ?(eps = 0.5) ?(c = 2.0) ~rng cube =
  alg2 ~eps ~c ~trace:Trace.null ~rng ~n:(Kary.node_count cube) ~d:(Kary.d cube)
    ~phase1:(fill_digit cube rng)

let run_plain ~k ~rng cube =
  token_walk ~trace:Trace.null ~k ~n:(Kary.node_count cube) ~d:(Kary.d cube)
    ~redraw:(redraw_digit cube rng)

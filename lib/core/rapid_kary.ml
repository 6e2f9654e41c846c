module Kary = Topology.Kary_hypercube
module Metrics = Simnet.Metrics
module Msg_size = Simnet.Msg_size
module Trace = Simnet.Trace

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
let alg2 ~eps ~c ~trace ~rng ~n ~d ~redraw =
  let iters = Params.iterations_hypercube ~d in
  let schedule = Params.schedule_hypercube ~eps ~c ~n ~iters in
  let m0 = schedule.(0) in
  (* A request carries (requester id, segment index); a response carries
     (sampled id, segment index). *)
  let msg_bits =
    Msg_size.ids_msg ~id_bits:(Msg_size.id_bits n) ~count:1
    + Msg_size.id_bits (max 2 d)
  in
  let plane = Array.make (n * d * m0) 0 and mlen = Array.make (n * d) m0 in
  let left_segments i = ((d - (1 lsl (i - 1)) - 1) lsr i) + 1 in
  let max_requests = ref 0 in
  for i = 1 to iters do
    max_requests := max !max_requests (n * left_segments i * schedule.(i))
  done;
  let reqs = Array.make !max_requests 0 in
  (* next.(v): during Phase 2 the count of requests to v-1, then v's
     cursor into [reqs], finally the end of v's requests. *)
  let next = Array.make (n + 1) 0 in
  (* load.(v): messages node v sent or received in the current round. *)
  let load = Array.make n 0 in
  let underflows = ref 0 and total_bits = ref 0 and max_node_bits = ref 0 in
  let finish_round round msgs =
    let busiest = ref 0 in
    for v = 0 to n - 1 do
      if load.(v) > !busiest then busiest := load.(v);
      load.(v) <- 0
    done;
    let bits = 2 * msgs * msg_bits and node_bits = !busiest * msg_bits in
    total_bits := !total_bits + bits;
    max_node_bits := max !max_node_bits node_bits;
    if Trace.enabled trace then
      Trace.emit trace
        (Trace.Round
           { round; msgs; bits; max_node_bits = node_bits;
             max_node_msgs = !busiest; blocked = 0 })
  in
  (* Phase 1: bucket j holds m0 copies of u with coordinate j redrawn. *)
  for u = 0 to n - 1 do
    for j = 0 to d - 1 do
      let base = ((u * d) + j) * m0 in
      for x = base to base + m0 - 1 do
        plane.(x) <- redraw u j
      done
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
        for x = 0 to e - 1 do
          let last = base + len - 1 - x in
          let p = base + Prng.Stream.int rng (len - x) in
          let v = plane.(p) in
          plane.(p) <- plane.(last);
          plane.(last) <- v;
          next.(v + 1) <- next.(v + 1) + 1;
          load.(v) <- load.(v) + 1
        done;
        load.(u) <- load.(u) + e;
        sent := !sent + e;
        s := !s + step
      done
    done;
    finish_round (2 * (i - 1)) !sent;
    for v = 1 to n do
      next.(v) <- next.(v) + next.(v - 1)
    done;
    for u = 0 to n - 1 do
      let s = ref 0 in
      while !s + half < d do
        let b = (u * d) + !s in
        let top = (b * m0) + mlen.(b) - 1 in
        for x = 0 to min mi mlen.(b) - 1 do
          let v = plane.(top - x) in
          reqs.(next.(v)) <- b;
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
        let b = reqs.(q) in
        let u = b / d in
        let r = (v * d) + (b - (u * d)) + half in
        let rlen = mlen.(r) in
        if rlen = 0 then incr underflows
        else begin
          let rbase = r * m0 in
          let p = rbase + Prng.Stream.int rng rlen in
          let w = plane.(p) in
          plane.(p) <- plane.(rbase + rlen - 1);
          mlen.(r) <- rlen - 1;
          plane.((b * m0) + mlen.(b)) <- w;
          mlen.(b) <- mlen.(b) + 1;
          load.(v) <- load.(v) + 1;
          load.(u) <- load.(u) + 1;
          incr served
        end
      done;
      first := next.(v)
    done;
    finish_round ((2 * i) - 1) !served
  done;
  (* M is a multiset: expose it in uniformly random order (a free local
     permutation).  Responses arrive grouped by server, and same-server
     responses share the server's already-fixed coordinates; a consumer
     taking a prefix of the arrival order would see correlated samples. *)
  let samples =
    Array.init n (fun u ->
        let a = Array.sub plane (u * d * m0) mlen.(u * d) in
        Prng.Stream.shuffle_in_place rng a;
        a)
  in
  {
    Sampling_result.samples;
    rounds = 2 * iters;
    walk_length = d;
    schedule;
    underflows = !underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = !max_node_bits;
    total_bits = !total_bits;
  }

(* The d-round token walk: in round [dim] each holder redraws coordinate
   [dim] and forwards the token unless it stays put. *)
let token_walk ~trace ~k ~n ~d ~redraw =
  let token_bits = Msg_size.ids_msg ~id_bits:(Msg_size.id_bits n) ~count:1 in
  let metrics = Metrics.create ~n in
  let send ~src ~dst =
    Metrics.on_send metrics ~node:src ~bits:token_bits;
    Metrics.on_recv metrics ~node:dst ~bits:token_bits
  in
  let finish_round () =
    let s = Metrics.finish_round metrics in
    if Trace.enabled trace then Trace.emit trace (Trace.round_of_summary s)
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
    finish_round ()
  done;
  let samples = Array.make n [] in
  Array.iteri
    (fun j endpoint ->
      let origin = origins.(j) in
      send ~src:endpoint ~dst:origin;
      samples.(origin) <- endpoint :: samples.(origin))
    positions;
  finish_round ();
  {
    Sampling_result.samples = Array.map Array.of_list samples;
    rounds = d + 1;
    walk_length = d;
    schedule = [| k |];
    underflows = 0;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

let redraw_digit cube rng =
  let k = Kary.k cube in
  fun u j -> Kary.with_coord cube u j (Prng.Stream.int rng k)

let run ?(eps = 0.5) ?(c = 2.0) ~rng cube =
  alg2 ~eps ~c ~trace:Trace.null ~rng ~n:(Kary.node_count cube) ~d:(Kary.d cube)
    ~redraw:(redraw_digit cube rng)

let run_plain ~k ~rng cube =
  token_walk ~trace:Trace.null ~k ~n:(Kary.node_count cube) ~d:(Kary.d cube)
    ~redraw:(redraw_digit cube rng)

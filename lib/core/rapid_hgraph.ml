module Hgraph = Topology.Hgraph
module Trace = Simnet.Trace

(* Node ids are stored as [w]-byte little-endian words, w = 2 when every id
   fits in 16 bits and 4 otherwise: a quarter or half the memory of an
   [int array].  The width is a plain argument at every access: bound into
   a closure ([let get = get w]) each access would become a call, since the
   dev profile compiles with [-opaque]. *)
let width ~max_value = if max_value < 1 lsl 16 then 2 else 4

let[@inline] get w b i =
  if w = 2 then Bytes.get_uint16_le b (2 * i)
  else Int32.to_int (Bytes.get_int32_le b (4 * i))

let[@inline] set w b i x =
  if w = 2 then Bytes.set_uint16_le b (2 * i) x
  else Bytes.set_int32_le b (4 * i) (Int32.of_int x)

(* Node v's M is plane.(start.(v) .. start.(v) + len.(v) - 1); see the .mli. *)
let run_attempt ~eps ~c ~alpha ~trace ~rng g =
  let n = Hgraph.n g in
  let d = Hgraph.degree g in
  let t = Params.iterations_hgraph ~alpha ~d ~n in
  let schedule = Params.schedule_hgraph ~eps ~c ~n ~t in
  let m0 = schedule.(0) in
  let tally = Sampling_result.tally ~n trace in
  let load = Sampling_result.load tally in
  (* The plane holds ids, the request buffer requesters: both below n. *)
  let w = width ~max_value:(n - 1) in
  let plane = Bytes.create (w * n * m0) in
  let reqs = Bytes.create (if t = 0 then 0 else w * n * schedule.(1)) in
  let start = Array.init n (fun v -> v * m0) and len = Array.make n m0 in
  (* next.(u): during Phase 2 the count of requests to u-1, then u's cursor
     into [reqs], finally the end of u's requests. *)
  let resp = Array.make n 0 and next = Array.make (n + 1) 0 in
  let underflows = ref 0 in
  (* Phase 1: every node fills M with m_0 uniformly random neighbors, i.e.
     endpoints of independent walks of length 1, drawn as
     [Hgraph.random_neighbor] draws them: one kernel call maps each edge
     index through v's neighbor list. *)
  let nbr = Array.make d 0 in
  for v = 0 to n - 1 do
    for e = 0 to d - 1 do
      nbr.(e) <- Hgraph.neighbor g v e
    done;
    Prng.Stream.fill_words rng ~width:w nbr plane ~pos:(v * m0) ~len:m0
  done;
  (* Each iteration doubles the walk length behind the ids in M (Lemma 5):
     an id w in M(v) is the endpoint of a walk of length 2^(i-1) from v; v
     asks w for an endpoint of one of w's walks of the same length; the
     composition is a walk of length 2^i from v. *)
  for i = 1 to t do
    let mi = schedule.(i) in
    (* Phase 2 (one round): send m_i requests; resp.(v) marks the end of
       v's targets until the counting sort has read them. *)
    Array.fill next 0 (n + 1) 0;
    let sent = ref 0 in
    for v = 0 to n - 1 do
      let base = start.(v) and l = len.(v) in
      let e = min mi l in
      underflows := !underflows + mi - e;
      Prng.Stream.shuffle_tail_words rng ~width:w plane ~pos:base ~len:l
        ~count:e;
      for p = base + l - e to base + l - 1 do
        let u = get w plane p in
        next.(u + 1) <- next.(u + 1) + 1
      done;
      load.(v) <- load.(v) + e;
      sent := !sent + e;
      len.(v) <- l - e;
      resp.(v) <- base + l
    done;
    (* A server's load this round is its request count, next.(u + 1). *)
    for u = 1 to n do
      load.(u - 1) <- load.(u - 1) + next.(u);
      next.(u) <- next.(u) + next.(u - 1)
    done;
    Sampling_result.finish_round tally ~round:(2 * (i - 1)) ~msgs:!sent;
    for v = 0 to n - 1 do
      let rest = start.(v) + len.(v) in
      for p = resp.(v) - 1 downto rest do
        let u = get w plane p in
        set w reqs next.(u) v;
        next.(u) <- next.(u) + 1
      done;
      resp.(v) <- rest
    done;
    (* Phase 3 + 4 (one round): serve each request from the remainder of M
       and deliver the response into the requester's tail.  Serving k
       requests by swap-removal draws with bounds len, len - 1, ..., i.e.
       a Fisher-Yates tail: the x-th requester (arrival order) gets the
       word the x-th step swapped to the end, and the live prefix matches
       swap-removal after every step. *)
    let served = ref 0 and first = ref 0 in
    for u = 0 to n - 1 do
      let k = next.(u) - !first and l = len.(u) in
      let e = min k l in
      Prng.Stream.shuffle_tail_words rng ~width:w plane ~pos:start.(u) ~len:l
        ~count:e;
      let last = start.(u) + l - 1 in
      for x = 0 to e - 1 do
        let v = get w reqs (!first + x) in
        set w plane resp.(v) (get w plane (last - x));
        resp.(v) <- resp.(v) + 1
      done;
      load.(u) <- load.(u) + e;
      underflows := !underflows + k - e;
      served := !served + e;
      first := next.(u)
    done;
    (* A requester's load is its response count, the length of its new M. *)
    for v = 0 to n - 1 do
      let rest = start.(v) + len.(v) in
      load.(v) <- load.(v) + resp.(v) - rest;
      start.(v) <- rest;
      len.(v) <- resp.(v) - rest
    done;
    Sampling_result.finish_round tally ~round:((2 * i) - 1) ~msgs:!served
  done;
  (* M is a multiset: expose it in uniformly random order (a free local
     permutation) so prefix-consumers do not see the server-grouped arrival
     order of the responses. *)
  let samples =
    Array.init n (fun v ->
        let base = start.(v) and l = len.(v) in
        Prng.Stream.shuffle_tail_words rng ~width:w plane ~pos:base ~len:l
          ~count:(max 0 (l - 1));
        let m = Array.make l 0 in
        for x = 0 to l - 1 do
          m.(x) <- get w plane (base + x)
        done;
        m)
  in
  Sampling_result.result tally ~samples ~rounds:(2 * t)
    ~walk_length:(1 lsl t) ~schedule ~underflows:!underflows

let run ?(eps = 0.5) ?(c = 2.0) ?(alpha = 1.0) ?(trace = Trace.null)
    ?(retry = Retry.fixed) ~rng g =
  Retry.sampling_with_retry ~retry ~c ~trace ~attempt_fn:(fun ~c ->
      run_attempt ~eps ~c ~alpha ~trace ~rng g)

let run_plain ?(alpha = 1.0) ?(trace = Trace.null) ~k ~rng g =
  let n = Hgraph.n g in
  let len = Params.walk_length ~alpha ~d:(Hgraph.degree g) ~n in
  (* A token carries its origin's id; the final report carries the endpoint
     id back to the origin. *)
  let tally = Sampling_result.tally ~n trace in
  let load = Sampling_result.load tally in
  let send src dst =
    load.(src) <- load.(src) + 1;
    load.(dst) <- load.(dst) + 1
  in
  (* positions.(j) = current node of token j; origins.(j) = its owner. *)
  let origins = Array.init (n * k) (fun j -> j / k) in
  let positions = Array.copy origins in
  for round = 0 to len - 1 do
    for j = 0 to Array.length positions - 1 do
      let cur = positions.(j) in
      let next = Hgraph.random_neighbor g rng cur in
      send cur next;
      positions.(j) <- next
    done;
    Sampling_result.finish_round tally ~round ~msgs:(n * k)
  done;
  (* Final round: endpoints report to origins (overlay: the token carries
     the origin's id, so the holder can address it directly). *)
  let samples = Array.make n [] in
  for j = 0 to Array.length positions - 1 do
    let origin = origins.(j) and endpoint = positions.(j) in
    send endpoint origin;
    samples.(origin) <- endpoint :: samples.(origin)
  done;
  Sampling_result.finish_round tally ~round:len ~msgs:(n * k);
  Sampling_result.result tally
    ~samples:(Array.map Array.of_list samples)
    ~rounds:(len + 1) ~walk_length:len ~schedule:[| k |] ~underflows:0

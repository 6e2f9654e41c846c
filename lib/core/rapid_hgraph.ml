module Hgraph = Topology.Hgraph
module Metrics = Simnet.Metrics
module Msg_size = Simnet.Msg_size
module Trace = Simnet.Trace

(* Close a metrics round and mirror its summary into the trace (used by the
   direct array implementations, which bypass the engine). *)
let finish_traced trace metrics =
  let s = Metrics.finish_round metrics in
  if Trace.enabled trace then Trace.emit trace (Trace.round_of_summary s)

let run_attempt ~eps ~c ~alpha ~trace ~rng g =
  let n = Hgraph.n g in
  let d = Hgraph.degree g in
  let t = Params.iterations_hgraph ~alpha ~d ~n in
  let schedule = Params.schedule_hgraph ~eps ~c ~n ~t in
  let id_bits = Msg_size.id_bits n in
  let request_bits = Msg_size.ids_msg ~id_bits ~count:1 in
  let response_bits = Msg_size.ids_msg ~id_bits ~count:1 in
  let metrics = Metrics.create ~n in
  let underflows = ref 0 in
  (* Phase 1: every node fills M with m_0 uniformly random neighbors, i.e.
     endpoints of independent walks of length 1. *)
  let m = Array.init n (fun _ -> Multiset.create ~capacity:schedule.(0) ()) in
  for v = 0 to n - 1 do
    for _ = 1 to schedule.(0) do
      Multiset.add m.(v) (Hgraph.random_neighbor g rng v)
    done
  done;
  (* Each iteration doubles the walk length behind the ids in M (Lemma 5):
     an id w in M(v) is the endpoint of a walk of length 2^(i-1) from v; v
     asks w for an endpoint of one of w's walks of the same length; the
     composition is a walk of length 2^i from v. *)
  let requesters = Array.init n (fun _ -> Topology.Intvec.create ()) in
  let fresh = Array.init n (fun _ -> Multiset.create ()) in
  for i = 1 to t do
    let mi = schedule.(i) in
    (* Phase 2 (one round): send m_i requests. *)
    for v = 0 to n - 1 do
      for _ = 1 to mi do
        match Multiset.extract_random m.(v) rng with
        | None -> incr underflows
        | Some u ->
            Metrics.on_send metrics ~node:v ~bits:request_bits;
            Metrics.on_recv metrics ~node:u ~bits:request_bits;
            Topology.Intvec.push requesters.(u) v
      done
    done;
    finish_traced trace metrics;
    (* Phase 3 + 4 (one round): serve each request from the remainder of M
       and deliver responses into the requesters' fresh multisets. *)
    for u = 0 to n - 1 do
      Topology.Intvec.iter
        (fun v ->
          match Multiset.extract_random m.(u) rng with
          | None -> incr underflows
          | Some w ->
              Metrics.on_send metrics ~node:u ~bits:response_bits;
              Metrics.on_recv metrics ~node:v ~bits:response_bits;
              Multiset.add fresh.(v) w)
        requesters.(u);
      Topology.Intvec.clear requesters.(u)
    done;
    finish_traced trace metrics;
    for v = 0 to n - 1 do
      Multiset.clear m.(v);
      Multiset.iter (fun w -> Multiset.add m.(v) w) fresh.(v);
      Multiset.clear fresh.(v)
    done
  done;
  (* M is a multiset: expose it in uniformly random order (a free local
     permutation) so prefix-consumers do not see the server-grouped arrival
     order of the responses. *)
  let samples =
    Array.map
      (fun ms ->
        let a = Multiset.to_array ms in
        Prng.Stream.shuffle_in_place rng a;
        a)
      m
  in
  {
    Sampling_result.samples;
    rounds = 2 * t;
    walk_length = 1 lsl t;
    schedule;
    underflows = !underflows;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

let run ?(eps = 0.5) ?(c = 2.0) ?(alpha = 1.0) ?(trace = Trace.null)
    ?(retry = Retry.fixed) ~rng g =
  Retry.sampling_with_retry ~retry ~c ~trace ~attempt_fn:(fun ~c ->
      run_attempt ~eps ~c ~alpha ~trace ~rng g)

let run_plain ?(alpha = 1.0) ?(trace = Trace.null) ~k ~rng g =
  let n = Hgraph.n g in
  let d = Hgraph.degree g in
  let len = Params.walk_length ~alpha ~d ~n in
  let id_bits = Msg_size.id_bits n in
  (* A token carries its origin's id; the final report carries the endpoint
     id back to the origin. *)
  let token_bits = Msg_size.ids_msg ~id_bits ~count:1 in
  let metrics = Metrics.create ~n in
  (* positions.(j) = current node of token j; origins.(j) = its owner. *)
  let origins = Array.init (n * k) (fun j -> j / k) in
  let positions = Array.copy origins in
  for _ = 1 to len do
    for j = 0 to Array.length positions - 1 do
      let cur = positions.(j) in
      let next = Hgraph.random_neighbor g rng cur in
      Metrics.on_send metrics ~node:cur ~bits:token_bits;
      Metrics.on_recv metrics ~node:next ~bits:token_bits;
      positions.(j) <- next
    done;
    finish_traced trace metrics
  done;
  (* Final round: endpoints report to origins (overlay: the token carries
     the origin's id, so the holder can address it directly). *)
  let samples = Array.make n [] in
  for j = 0 to Array.length positions - 1 do
    let origin = origins.(j) and endpoint = positions.(j) in
    Metrics.on_send metrics ~node:endpoint ~bits:token_bits;
    Metrics.on_recv metrics ~node:origin ~bits:token_bits;
    samples.(origin) <- endpoint :: samples.(origin)
  done;
  finish_traced trace metrics;
  {
    Sampling_result.samples = Array.map Array.of_list samples;
    rounds = len + 1;
    walk_length = len;
    schedule = [| k |];
    underflows = 0;
    retries = 0;
    escalations = 0;
    max_round_node_bits = Metrics.max_node_bits_ever metrics;
    total_bits = Metrics.total_bits metrics;
  }

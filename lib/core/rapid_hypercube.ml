module Hypercube = Topology.Hypercube
module Trace = Simnet.Trace

(* Phase 1 and the token walk randomize coordinate j with a fair coin. *)
let coin_flip cube rng u j =
  if Prng.Stream.bool rng then Hypercube.flip cube u j else u

(* Phase 1 of bucket (u, j): one coin per slot, in slot order, written as a
   [width]-byte word. *)
let coin_flips cube rng ~width plane ~pos ~len u j =
  for x = pos to pos + len - 1 do
    let id = coin_flip cube rng u j in
    if width = 2 then Bytes.set_uint16_le plane (2 * x) id
    else Bytes.set_int32_le plane (4 * x) (Int32.of_int id)
  done

let run ?(eps = 0.5) ?(c = 2.0) ?(trace = Trace.null) ?(retry = Retry.fixed)
    ~rng cube =
  Retry.sampling_with_retry ~retry ~c ~trace ~attempt_fn:(fun ~c ->
      Rapid_kary.alg2 ~eps ~c ~trace ~rng ~n:(Hypercube.node_count cube)
        ~d:(Hypercube.dimension cube) ~phase1:(coin_flips cube rng))

let run_plain ?(trace = Trace.null) ~k ~rng cube =
  Rapid_kary.token_walk ~trace ~k ~n:(Hypercube.node_count cube)
    ~d:(Hypercube.dimension cube) ~redraw:(coin_flip cube rng)

type op_kind = Read | Write | Publish

let class_name = function
  | Read -> "read"
  | Write -> "write"
  | Publish -> "publish"

type request = {
  client : int;
  seq : int;
  arrival : int;
  op : op_kind;
  key : int;
}

(* Keyed derivation, not sequential splitting: the stream of client [c] is
   a pure function of (seed, c), so generating clients in any order, on any
   domain, or for any total client count yields the same per-client
   randomness. *)
let client_stream ~seed ~client =
  Prng.Stream.of_seed
    (Prng.Splitmix64.mix
       (Int64.add (Prng.Splitmix64.mix seed) (Int64.of_int (2 * client + 1))))

let draw_request (spec : Spec.t) s =
  let r = Prng.Stream.float s 1.0 in
  let op =
    if r < spec.Spec.mix.Spec.read then Read
    else if r < spec.Spec.mix.Spec.read +. spec.Spec.mix.Spec.write then Write
    else Publish
  in
  let key =
    match spec.Spec.popularity with
    | Spec.Uniform -> Prng.Stream.int s spec.Spec.keys
    | Spec.Zipf z -> Prng.Dist.zipf s ~n:spec.Spec.keys ~s:z - 1
  in
  (op, key)

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

(* The popularity table is built when [draw_request] is applied to the
   spec, so a run that keeps the partial application builds it once. *)
let draw_request (spec : Spec.t) =
  let key =
    match spec.Spec.popularity with
    | Spec.Uniform -> fun s -> Prng.Stream.int s spec.Spec.keys
    | Spec.Zipf z ->
        let table = Prng.Dist.zipf_table ~n:spec.Spec.keys ~s:z in
        fun s -> Prng.Dist.zipf_draw s table - 1
  in
  let read = spec.Spec.mix.Spec.read in
  let read_write = read +. spec.Spec.mix.Spec.write in
  fun s ->
    (* [Stream.float s 1.0]'s value, unboxed *)
    let r = float_of_int (Prng.Stream.bits53 s) *. 0x1p-53 in
    let op =
      if r < read then Read else if r < read_write then Write else Publish
    in
    (op, key s)

type cls = Feed | Post | Comment | Vote | Dm

let classes = [ Feed; Post; Comment; Vote; Dm ]

let class_name = function
  | Feed -> "feed"
  | Post -> "post"
  | Comment -> "comment"
  | Vote -> "vote"
  | Dm -> "dm"

type budget = { slo : int; timeout : int; retries : int }

(* Interactive reads want the page now and give up early; posts carry
   their repost fan-out in one chain (several publishes of 3 + hops
   operations each), so their budget is an order looser; votes are cheap
   fire-and-forget; DMs must not be lost, so they tolerate latency and
   retry hardest. *)
let budget = function
  | Feed -> { slo = 6; timeout = 12; retries = 1 }
  | Post -> { slo = 36; timeout = 48; retries = 2 }
  | Comment -> { slo = 12; timeout = 24; retries = 2 }
  | Vote -> { slo = 8; timeout = 16; retries = 1 }
  | Dm -> { slo = 14; timeout = 28; retries = 3 }

type mix = {
  feed : float;
  post : float;
  comment : float;
  vote : float;
  dm : float;
}

let default_mix = { feed = 0.60; post = 0.15; comment = 0.12; vote = 0.10; dm = 0.03 }

type config = {
  users : int;
  topics : int;
  rounds : int;
  rate : float;
  fanout : int;
  zipf : float;
  mix : mix;
  session : (float * int) option;
}

let config ?(users = 64) ?(topics = 16) ?(rounds = 64) ?(rate = 0.25)
    ?(fanout = 2) ?(zipf = 1.1) ?(mix = default_mix) ?session () =
  if users <= 0 then invalid_arg "Apps.Social: users <= 0";
  if topics <= 0 then invalid_arg "Apps.Social: topics <= 0";
  if topics > Pubsub.max_seq then
    invalid_arg "Apps.Social: topics exceed the plain key space";
  if rounds <= 0 then invalid_arg "Apps.Social: rounds <= 0";
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Apps.Social: rate <= 0";
  if fanout < 0 then invalid_arg "Apps.Social: negative fanout";
  if zipf <= 0.0 || not (Float.is_finite zipf) then
    invalid_arg "Apps.Social: zipf <= 0";
  let weights = [ mix.feed; mix.post; mix.comment; mix.vote; mix.dm ] in
  if List.exists (fun w -> w < 0.0 || not (Float.is_finite w)) weights then
    invalid_arg "Apps.Social: negative mix weight";
  let sum = List.fold_left ( +. ) 0.0 weights in
  if sum <= 0.0 then invalid_arg "Apps.Social: zero mix";
  let mix =
    {
      feed = mix.feed /. sum;
      post = mix.post /. sum;
      comment = mix.comment /. sum;
      vote = mix.vote /. sum;
      dm = mix.dm /. sum;
    }
  in
  (match session with
  | None -> ()
  | Some (online, epoch) ->
      if online <= 0.0 || online > 1.0 || not (Float.is_finite online) then
        invalid_arg "Apps.Social: session online outside (0, 1]";
      if epoch <= 0 then invalid_arg "Apps.Social: session epoch <= 0");
  { users; topics; rounds; rate; fanout; zipf; mix; session }

let content_topic _ t = 1 + t
let comment_topic cfg t = 1 + cfg.topics + t
let feed_topic cfg u = 1 + (2 * cfg.topics) + u
let dm_topic cfg u = 1 + (2 * cfg.topics) + cfg.users + u
let vote_key _ t = t

let hot_keys cfg =
  Array.init cfg.topics (fun t ->
      ( Pubsub.counter_key (content_topic cfg t),
        1.0 /. ((float_of_int t +. 1.0) ** cfg.zipf) ))

type op = Probe of int | Publish of int | Store of int

let base_ops = function Probe _ -> 1 | Store _ -> 1 | Publish _ -> 3

type request = {
  user : int;
  seq : int;
  arrival : int;
  cls : cls;
  ops : op list;
}

(* Keyed derivation (cf. {!Gen.client_stream}): user [u]'s stream is a
   pure function of (seed, u).  Even offsets, so the streams are disjoint
   from the workload generator's odd-offset client streams even under a
   shared seed.  Offset 0 is the session stream. *)
let user_stream ~seed ~user =
  Prng.Stream.of_seed
    (Prng.Splitmix64.mix
       (Int64.add (Prng.Splitmix64.mix seed) (Int64.of_int (2 * (user + 1)))))

let session_stream ~seed =
  Prng.Stream.of_seed (Prng.Splitmix64.mix (Prng.Splitmix64.mix seed))

let offline cfg ~seed =
  match cfg.session with
  | None -> [||]
  | Some (online, epoch) ->
      let s = session_stream ~seed in
      let epochs = (cfg.rounds + epoch - 1) / epoch in
      let off = int_of_float ((1.0 -. online) *. float_of_int cfg.users) in
      Array.init epochs (fun _ ->
          let set = Array.make cfg.users false in
          if off > 0 then
            Array.iter
              (fun u -> set.(u) <- true)
              (Prng.Stream.sample_distinct s cfg.users ~k:off);
          set)

let draw_topic zipf s = Prng.Dist.zipf_draw s zipf - 1

let draw_class cfg s =
  (* [Stream.float s 1.0]'s value, unboxed *)
  let r = float_of_int (Prng.Stream.bits53 s) *. 0x1p-53 in
  let m = cfg.mix in
  if r < m.feed then Feed
  else if r < m.feed +. m.post then Post
  else if r < m.feed +. m.post +. m.comment then Comment
  else if r < m.feed +. m.post +. m.comment +. m.vote then Vote
  else Dm

let draw_ops cfg zipf s = function
  | Feed -> [ Probe (content_topic cfg (draw_topic zipf s)) ]
  | Post ->
      let t = draw_topic zipf s in
      (* the repost fan-out: one action, 1 + fanout chained publishes *)
      let followers =
        List.init cfg.fanout (fun _ -> Prng.Stream.int s cfg.users)
      in
      Publish (content_topic cfg t)
      :: List.map (fun u -> Publish (feed_topic cfg u)) followers
  | Comment -> [ Publish (comment_topic cfg (draw_topic zipf s)) ]
  | Vote -> [ Store (vote_key cfg (draw_topic zipf s)) ]
  | Dm -> [ Publish (dm_topic cfg (Prng.Stream.int s cfg.users)) ]

let arrivals cfg ~seed ~offline =
  let streams = Array.init cfg.users (fun user -> user_stream ~seed ~user) in
  let next_seq = Array.make cfg.users 0 in
  let zipf = Prng.Dist.zipf_table ~n:cfg.topics ~s:cfg.zipf in
  let epoch_len =
    match cfg.session with Some (_, e) -> e | None -> cfg.rounds
  in
  fun ~round issue ->
    for user = 0 to cfg.users - 1 do
      if Array.length offline = 0 || not offline.(round / epoch_len).(user)
      then begin
        let s = streams.(user) in
        for _ = 1 to Prng.Dist.poisson s cfg.rate do
          let cls = draw_class cfg s in
          let ops = draw_ops cfg zipf s cls in
          let seq = next_seq.(user) in
          next_seq.(user) <- seq + 1;
          issue { user; seq; arrival = round; cls; ops }
        done
      end
    done

type plan = {
  drop : float;
  duplicate : float;
  delay_p : float;
  delay_max : int;
  reorder : float;
  crash : int;
  crash_round : int;
  recover_after : int;
  seed : int64;
}

let default_seed = 0xFA17_5EEDL

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    delay_p = 0.0;
    delay_max = 0;
    reorder = 0.0;
    crash = 0;
    crash_round = 1;
    recover_after = 0;
    seed = default_seed;
  }

type feature = [ `Drop | `Duplicate | `Delay | `Reorder | `Crash | `Recover ]

let features p =
  List.filter
    (function
      | `Drop -> p.drop > 0.0
      | `Duplicate -> p.duplicate > 0.0
      | `Delay -> p.delay_p > 0.0 && p.delay_max > 0
      | `Reorder -> p.reorder > 0.0
      | `Crash -> p.crash > 0
      | `Recover -> p.crash > 0 && p.recover_after > 0)
    [ `Drop; `Duplicate; `Delay; `Reorder; `Crash; `Recover ]

let check_prob name x =
  if x < 0.0 || x > 1.0 || Float.is_nan x then
    invalid_arg (Printf.sprintf "Faults.make: %s must be in [0, 1]" name)

let make ?(drop = 0.0) ?(duplicate = 0.0) ?delay_p ?(delay_max = 0)
    ?(reorder = 0.0) ?(crash = 0) ?(crash_round = 1) ?(recover_after = 0)
    ?(seed = default_seed) () =
  let delay_p =
    match delay_p with Some p -> p | None -> if delay_max > 0 then 0.05 else 0.0
  in
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "delay_p" delay_p;
  check_prob "reorder" reorder;
  if delay_max < 0 then invalid_arg "Faults.make: delay_max < 0";
  if crash < 0 then invalid_arg "Faults.make: crash < 0";
  if crash_round < 0 then invalid_arg "Faults.make: crash_round < 0";
  if recover_after < 0 then invalid_arg "Faults.make: recover_after < 0";
  { drop; duplicate; delay_p; delay_max; reorder; crash; crash_round;
    recover_after; seed }

let parse_spec s =
  let parse_float k v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | _ -> Error (Printf.sprintf "faults: %s wants a probability in [0,1], got %S" k v)
  in
  let parse_int k v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "faults: %s wants a non-negative integer, got %S" k v)
  in
  let rec go plan = function
    | [] -> Ok plan
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "faults: expected key=value, got %S" kv)
        | Some i -> (
            let k = String.sub kv 0 i
            and v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let ( let* ) = Result.bind in
            match k with
            | "drop" ->
                let* f = parse_float k v in
                go { plan with drop = f } rest
            | "dup" | "duplicate" ->
                let* f = parse_float k v in
                go { plan with duplicate = f } rest
            | "delayp" ->
                let* f = parse_float k v in
                go { plan with delay_p = f } rest
            | "delay" ->
                let* i = parse_int k v in
                (* `delay=K` alone means "delays happen, held <= K rounds";
                   give it the default probability unless delayp is set. *)
                let plan =
                  if plan.delay_p = 0.0 then { plan with delay_p = 0.05 }
                  else plan
                in
                go { plan with delay_max = i } rest
            | "reorder" ->
                let* f = parse_float k v in
                go { plan with reorder = f } rest
            | "crash" ->
                let* i = parse_int k v in
                go { plan with crash = i } rest
            | "crashround" ->
                let* i = parse_int k v in
                go { plan with crash_round = i } rest
            | "recover" ->
                let* i = parse_int k v in
                go { plan with recover_after = i } rest
            | "seed" -> (
                match Int64.of_string_opt v with
                | Some s -> go { plan with seed = s } rest
                | None -> Error (Printf.sprintf "faults: bad seed %S" v))
            | _ -> Error (Printf.sprintf "faults: unknown key %S" k)))
  in
  let parts =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "faults: empty spec" else go none parts

let to_spec p =
  let out = ref [] in
  let addf k v = if v > 0.0 then out := Printf.sprintf "%s=%g" k v :: !out in
  if Int64.compare p.seed default_seed <> 0 then
    out := Printf.sprintf "seed=%Ld" p.seed :: !out;
  if p.recover_after > 0 then
    out := Printf.sprintf "recover=%d" p.recover_after :: !out;
  if p.crash > 0 && p.crash_round <> 1 then
    out := Printf.sprintf "crashround=%d" p.crash_round :: !out;
  if p.crash > 0 then out := Printf.sprintf "crash=%d" p.crash :: !out;
  addf "reorder" p.reorder;
  if p.delay_max > 0 then begin
    if p.delay_p <> 0.05 then addf "delayp" p.delay_p;
    out := Printf.sprintf "delay=%d" p.delay_max :: !out
  end;
  addf "dup" p.duplicate;
  addf "drop" p.drop;
  if !out = [] then "none" else String.concat "," !out

type losses = { dropped : int; duplicated : int; delayed : int; crash_lost : int }

let no_losses = { dropped = 0; duplicated = 0; delayed = 0; crash_lost = 0 }

type t = {
  plan : plan;
  stream : Prng.Stream.t;
  trace : Trace.t;
  mutable crashed_now : bool array;
  (* Upcoming transitions, soonest first (rounds are strictly increasing
     per node; the whole list is sorted at install). *)
  mutable upcoming : (int * int * [ `Crash | `Recover ]) list;
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
  mutable crash_losses : int;
}

let install ?(trace = Trace.null) plan ~n =
  if n <= 0 then invalid_arg "Faults.install: n <= 0";
  let stream = Prng.Stream.of_seed plan.seed in
  let k = min plan.crash n in
  let victims = if k > 0 then Prng.Stream.sample_distinct stream n ~k else [||] in
  let upcoming = ref [] in
  Array.iteri
    (fun i v ->
      let at = plan.crash_round + i in
      upcoming := (at, v, `Crash) :: !upcoming;
      if plan.recover_after > 0 then
        upcoming := (at + plan.recover_after, v, `Recover) :: !upcoming)
    victims;
  {
    plan;
    stream;
    trace;
    crashed_now = Array.make n false;
    upcoming =
      List.sort
        (fun (r1, n1, _) (r2, n2, _) -> compare (r1, n1) (r2, n2))
        !upcoming;
    drops = 0;
    dups = 0;
    delays = 0;
    crash_losses = 0;
  }

let plan t = t.plan

let losses t =
  { dropped = t.drops; duplicated = t.dups; delayed = t.delays;
    crash_lost = t.crash_losses }

(* Size-independently keyed: a node index outside the install-time range is
   simply never crashed, so a network that grew past its initial n can keep
   querying without re-installing (and without aliasing the Bernoulli
   stream, which never depends on n). *)
let crashed t v = v >= 0 && v < Array.length t.crashed_now && t.crashed_now.(v)

let charge_crash t k = t.crash_losses <- t.crash_losses + k

let resize t ~n =
  if n <= 0 then invalid_arg "Faults.resize: n <= 0";
  let len = Array.length t.crashed_now in
  if n > len then begin
    let grown = Array.make n false in
    Array.blit t.crashed_now 0 grown 0 len;
    t.crashed_now <- grown
  end

(* Every fault event is built here.  Callers test [Trace.enabled] first,
   so an untraced run builds no event fields. *)
let emit t ~round kind fields =
  Trace.emit t.trace (Trace.Fault { kind; round; fields })

let tick t ~round =
  let rec go = function
    | (r, node, kind) :: rest when r <= round ->
        t.crashed_now.(node) <- (kind = `Crash);
        if Trace.enabled t.trace then
          emit t ~round
            (match kind with `Crash -> "crash" | `Recover -> "recover")
            [ ("node", Trace.Int node) ];
        go rest
    | rest -> t.upcoming <- rest
  in
  go t.upcoming

type outcome = Pass | Drop | Delay of int | Duplicate

let bernoulli t p = p > 0.0 && Prng.Stream.bernoulli t.stream p

let endpoints ?src ?dst tail =
  let tail = match dst with Some v -> ("dst", Trace.Int v) :: tail | None -> tail in
  match src with Some v -> ("src", Trace.Int v) :: tail | None -> tail

let roll t ~round ?src ?dst () =
  let traced = Trace.enabled t.trace in
  if bernoulli t t.plan.drop then begin
    t.drops <- t.drops + 1;
    if traced then emit t ~round "drop" (endpoints ?src ?dst []);
    Drop
  end
  else if t.plan.delay_max > 0 && bernoulli t t.plan.delay_p then begin
    let hold = 1 + Prng.Stream.int t.stream t.plan.delay_max in
    t.delays <- t.delays + 1;
    if traced then
      emit t ~round "delay"
        (endpoints ?src ?dst [ ("until", Trace.Int (round + hold)) ]);
    Delay hold
  end
  else if bernoulli t t.plan.duplicate then begin
    t.dups <- t.dups + 1;
    if traced then emit t ~round "duplicate" (endpoints ?src ?dst []);
    Duplicate
  end
  else Pass

let reorder t ~round ~dst len =
  if len > 1 && bernoulli t t.plan.reorder then begin
    let perm = Prng.Stream.permutation t.stream len in
    if Trace.enabled t.trace then
      emit t ~round "reorder" [ ("dst", Trace.Int dst); ("msgs", Trace.Int len) ];
    Some perm
  end
  else None

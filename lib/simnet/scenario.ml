type t = {
  n : int;
  d : int;
  seed : int;
  sampler : string option;
  adversary : string option;
  frac : float;
  lateness : int;
  staleness : Snapshots.staleness option;
  corruption : Corruption.spec option;
  faults : Faults.plan option;
  retry : int;
  workload : string option;
  backend : string option;
  chord_fingers : int option;
  chord_succs : int option;
  chord_period : int option;
  app : string option;
  topics : int option;
  fanout : int option;
  session : (float * int) option;
  rounds : int;
  domains : int;
  trace : string option;
  trace_format : Trace.format option;
}

let default =
  {
    n = 1024;
    d = 8;
    seed = 42;
    sampler = None;
    adversary = None;
    frac = 0.0;
    lateness = -1;
    staleness = None;
    corruption = None;
    faults = None;
    retry = 0;
    workload = None;
    backend = None;
    chord_fingers = None;
    chord_succs = None;
    chord_period = None;
    app = None;
    topics = None;
    fanout = None;
    session = None;
    rounds = -1;
    domains = 0;
    trace = None;
    trace_format = None;
  }

let format_of_string = function
  | "jsonl" -> Ok Trace.Jsonl
  | "bin" | "binary" -> Ok Trace.Binary
  | other -> Error other

let string_of_format = function
  | Trace.Jsonl -> "jsonl"
  | Trace.Binary -> "bin"

let err key what = Error (Printf.sprintf "scenario: %s %s" key what)

let parse_int key v k =
  match int_of_string_opt (String.trim v) with
  | Some i -> k i
  | None -> err key (Printf.sprintf "expects an integer, got %S" v)

let parse_float key v k =
  match float_of_string_opt (String.trim v) with
  | Some f -> k f
  | None -> err key (Printf.sprintf "expects a number, got %S" v)

(* A chord knob is [None] (the backend default) or a positive length;
   "-1" keeps parsing as the historical default sentinel. *)
let parse_chord_knob key v k =
  parse_int key v (fun i ->
      if i = -1 then k None
      else if i <= 0 then err key "must be > 0 (or -1 for the default)"
      else k (Some i))

let keys =
  [
    "n"; "d"; "seed"; "sampler"; "adversary"; "frac"; "lateness"; "staleness";
    "corruption"; "faults"; "retry"; "workload"; "backend"; "chord-fingers";
    "chord-succs"; "chord-period"; "app"; "topics"; "fanout"; "session";
    "rounds"; "domains"; "trace"; "trace-format";
  ]

(* Plain Levenshtein distance, for the unknown-key suggestion.  Key names
   are short, so the quadratic table is nothing. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let prev_diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let d = !prev_diag + if a.[i - 1] = b.[j - 1] then 0 else 1 in
      prev_diag := row.(j);
      row.(j) <- min d (1 + min row.(j) row.(j - 1))
    done
  done;
  row.(lb)

let nearest_key other =
  let best, dist =
    List.fold_left
      (fun (best, dist) k ->
        let d = edit_distance other k in
        if d < dist then (k, d) else (best, dist))
      ("", max_int) keys
  in
  (* only suggest when the typo is plausibly the key: at most half the
     candidate's length away *)
  if dist * 2 <= String.length best then Some best else None

let unknown_key other =
  match nearest_key other with
  | Some k -> err other (Printf.sprintf "is not a scenario key (did you mean %s?)" k)
  | None -> err other "is not a scenario key"

let apply t (key, v) =
  match key with
  | "n" ->
      parse_int key v (fun n ->
          if n <= 0 then err key "must be > 0" else Ok { t with n })
  | "d" ->
      parse_int key v (fun d ->
          if d < 2 then err key "must be >= 2" else Ok { t with d })
  | "seed" -> parse_int key v (fun seed -> Ok { t with seed })
  | "sampler" -> Ok { t with sampler = Some (String.trim v) }
  | "adversary" -> Ok { t with adversary = Some (String.trim v) }
  | "frac" ->
      parse_float key v (fun frac ->
          if frac < 0.0 || frac > 1.0 then err key "must be in [0, 1]"
          else Ok { t with frac })
  | "lateness" ->
      parse_int key v (fun lateness ->
          if lateness < -1 then err key "must be >= -1"
          else Ok { t with lateness })
  | "staleness" -> (
      (* The sub-parser errors already name the key. *)
      match Snapshots.staleness_of_string (String.trim v) with
      | Ok s -> Ok { t with staleness = Some s }
      | Error e -> Error ("scenario: " ^ e))
  | "corruption" -> (
      match Corruption.parse_spec v with
      | Ok spec -> Ok { t with corruption = Some spec }
      | Error e -> Error ("scenario: " ^ e))
  | "faults" -> (
      match Faults.parse_spec v with
      | Ok plan -> Ok { t with faults = Some plan }
      | Error e -> err key e)
  | "retry" ->
      parse_int key v (fun retry ->
          if retry < 0 then err key "must be >= 0" else Ok { t with retry })
  | "workload" -> Ok { t with workload = Some (String.trim v) }
  | "backend" -> Ok { t with backend = Some (String.trim v) }
  | "chord-fingers" ->
      parse_chord_knob key v (fun chord_fingers -> Ok { t with chord_fingers })
  | "chord-succs" ->
      parse_chord_knob key v (fun chord_succs -> Ok { t with chord_succs })
  | "chord-period" ->
      parse_chord_knob key v (fun chord_period -> Ok { t with chord_period })
  | "app" -> Ok { t with app = Some (String.trim v) }
  | "topics" ->
      parse_int key v (fun topics ->
          if topics <= 0 then err key "must be > 0"
          else Ok { t with topics = Some topics })
  | "fanout" ->
      parse_int key v (fun fanout ->
          if fanout < 0 then err key "must be >= 0"
          else Ok { t with fanout = Some fanout })
  | "session" -> (
      match String.split_on_char ':' (String.trim v) with
      | [ online; epoch ] -> (
          match (float_of_string_opt online, int_of_string_opt epoch) with
          | Some online, Some epoch ->
              if
                (not (Float.is_finite online)) || online <= 0.0 || online > 1.0
              then err key "online fraction must be in (0, 1]"
              else if epoch <= 0 then err key "epoch must be > 0"
              else Ok { t with session = Some (online, epoch) }
          | _ -> err key (Printf.sprintf "expects ONLINE:EPOCH, got %S" v))
      | _ -> err key (Printf.sprintf "expects ONLINE:EPOCH, got %S" v))
  | "rounds" ->
      parse_int key v (fun rounds ->
          (* -1 is the unset default; 0 would run nothing (or trip a
             driver's own untyped check), so it is rejected here, once *)
          if rounds = 0 then err key "must be > 0, got 0"
          else if rounds < -1 then err key "must be >= -1"
          else Ok { t with rounds })
  | "domains" ->
      parse_int key v (fun domains ->
          if domains < 0 then err key "must be >= 0 (0 = runtime default)"
          else Ok { t with domains })
  | "trace" -> Ok { t with trace = Some (String.trim v) }
  | "trace-format" -> (
      match format_of_string (String.trim v) with
      | Ok f -> Ok { t with trace_format = Some f }
      | Error other ->
          err key (Printf.sprintf "expects jsonl or bin, got %S" other))
  | other -> unknown_key other

let of_args ?(base = default) kvs =
  List.fold_left
    (fun acc kv -> Result.bind acc (fun t -> apply t kv))
    (Ok base) kvs

let parse ?base s =
  let segments = String.split_on_char ';' s in
  let rec to_kvs acc = function
    | [] -> Ok (List.rev acc)
    | seg :: rest -> (
        let seg = String.trim seg in
        if seg = "" then to_kvs acc rest
        else
          match String.index_opt seg '=' with
          | None ->
              Error
                (Printf.sprintf "scenario: expected KEY=VALUE, got %S" seg)
          | Some i ->
              let key = String.trim (String.sub seg 0 i) in
              let v = String.sub seg (i + 1) (String.length seg - i - 1) in
              to_kvs ((key, v) :: acc) rest)
  in
  Result.bind (to_kvs [] segments) (fun kvs -> of_args ?base kvs)

let to_args t =
  let kvs = ref [] in
  let add key v = kvs := Printf.sprintf "%s=%s" key v :: !kvs in
  if t.n <> default.n then add "n" (string_of_int t.n);
  if t.d <> default.d then add "d" (string_of_int t.d);
  if t.seed <> default.seed then add "seed" (string_of_int t.seed);
  Option.iter (add "sampler") t.sampler;
  Option.iter (add "adversary") t.adversary;
  if t.frac <> 0.0 then add "frac" (Stats.Float_text.repr t.frac);
  if t.lateness <> -1 then add "lateness" (string_of_int t.lateness);
  Option.iter
    (fun s -> add "staleness" (Snapshots.staleness_to_string s))
    t.staleness;
  Option.iter (fun c -> add "corruption" (Corruption.to_spec c)) t.corruption;
  Option.iter (fun p -> add "faults" (Faults.to_spec p)) t.faults;
  if t.retry <> 0 then add "retry" (string_of_int t.retry);
  Option.iter (add "workload") t.workload;
  Option.iter (add "backend") t.backend;
  Option.iter (fun v -> add "chord-fingers" (string_of_int v)) t.chord_fingers;
  Option.iter (fun v -> add "chord-succs" (string_of_int v)) t.chord_succs;
  Option.iter (fun v -> add "chord-period" (string_of_int v)) t.chord_period;
  Option.iter (add "app") t.app;
  Option.iter (fun v -> add "topics" (string_of_int v)) t.topics;
  Option.iter (fun v -> add "fanout" (string_of_int v)) t.fanout;
  Option.iter
    (fun (online, epoch) ->
      add "session"
        (Printf.sprintf "%s:%d" (Stats.Float_text.repr online) epoch))
    t.session;
  if t.rounds <> -1 then add "rounds" (string_of_int t.rounds);
  if t.domains <> 0 then add "domains" (string_of_int t.domains);
  Option.iter (add "trace") t.trace;
  Option.iter (fun f -> add "trace-format" (string_of_format f)) t.trace_format;
  List.rev !kvs

let to_spec t = String.concat ";" (to_args t)

let trace_sink t =
  match t.trace with
  | None -> Trace.null
  | Some path -> Trace.open_file ?format:t.trace_format path

let fault_model_active t = t.faults <> None || t.retry > 0

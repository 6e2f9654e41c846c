type record = (string * Simnet.Trace.value) list
type 'a codec = { encode : 'a -> record; decode : record -> 'a option }
type 'a outcome = { cell : Grid.cell; value : 'a; cached : bool }

let record_codec = { encode = Fun.id; decode = Option.some }

(* Reserved header keys of a checkpoint record; payload keys must not
   collide with them or resume could not split a parsed line back into
   header and payload. *)
let reserved = [ "sweep"; "cell"; "index"; "repro"; "trace" ]

(* Per-cell trace files live under the cell_traces directory, named
   after the cell id with non-portable characters mapped to '_' — a pure
   function of the cell's identity, so resumed or re-sharded runs
   reference the same paths and the canonical rewrite stays
   byte-identical. *)
let cell_trace_path ~dir (cell : Grid.cell) =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
        | _ -> '_')
      cell.id
  in
  Filename.concat dir (sanitized ^ ".bin")

let line_of ~sweep ~repro ?trace_file (cell : Grid.cell) payload =
  List.iter
    (fun (k, _) ->
      if List.mem k reserved then
        invalid_arg
          (Printf.sprintf
             "Sweep.Exec: cell %S payload uses reserved key %S" cell.id k))
    payload;
  let header =
    ("sweep", Simnet.Trace.String sweep)
    :: ("cell", Simnet.Trace.String cell.id)
    :: ("index", Simnet.Trace.Int cell.index)
    :: ("repro", Simnet.Trace.String (repro cell))
    ::
    (match trace_file with
    | None -> []
    | Some path -> [ ("trace", Simnet.Trace.String path) ])
  in
  (* The default float repr of jsonl_of_pairs is the lossless
     shortest-roundtrip form (Stats.Float_text.json_repr), which is
     exactly the rendering this module used to carry privately — codec
     round-trips stay byte-exact. *)
  Simnet.Trace.jsonl_of_pairs (header @ payload)

(* Read back whatever prefix of a checkpoint file survived: unparsable
   lines (a run killed mid-write leaves a truncated tail) and records of
   other sweeps are skipped; later records win over earlier ones, since
   a resumed run appends before the final canonical rewrite. *)
let load_checkpoint ~sweep path =
  let cached = Hashtbl.create 64 in
  (if Sys.file_exists path then
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match Simnet.Trace.parse_jsonl_line line with
            | None -> ()
            | Some pairs -> (
                match
                  ( List.assoc_opt "sweep" pairs,
                    List.assoc_opt "cell" pairs )
                with
                | Some (Simnet.Trace.String s), Some (Simnet.Trace.String id)
                  when s = sweep ->
                    let payload =
                      List.filter (fun (k, _) -> not (List.mem k reserved)) pairs
                    in
                    Hashtbl.replace cached id payload
                | _ -> ())
        done
      with End_of_file -> ());
     close_in ic);
  cached

let run ?domains ?checkpoint ?(trace = Simnet.Trace.null) ?cell_traces
    ?(repro = fun (c : Grid.cell) -> Simnet.Scenario.to_spec c.scenario)
    ~sweep ~codec cells f =
  let cells_arr = Array.of_list cells in
  let total = Array.length cells_arr in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    cell_traces;
  let trace_file cell =
    Option.map (fun dir -> cell_trace_path ~dir cell) cell_traces
  in
  let cached =
    match checkpoint with
    | None -> Hashtbl.create 0
    | Some path -> load_checkpoint ~sweep path
  in
  let oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      checkpoint
  in
  let mutex = Mutex.create () in
  let completed = ref 0 in
  let progress (cell : Grid.cell) ~wall_s ~was_cached =
    incr completed;
    if Simnet.Trace.enabled trace then
      Simnet.Trace.emit trace
        (Simnet.Trace.Progress
           {
             sweep;
             cell = cell.id;
             index = cell.index;
             completed = !completed;
             total;
             wall_s;
             cached = was_cached;
           })
  in
  let fresh (cell : Grid.cell) =
    let t0 = Unix.gettimeofday () in
    let trace_file = trace_file cell in
    let ctrace =
      match trace_file with
      | None -> Simnet.Trace.null
      | Some path -> Simnet.Trace.open_file ~format:Simnet.Trace.Binary path
    in
    let value =
      Fun.protect
        ~finally:(fun () -> Simnet.Trace.close ctrace)
        (fun () -> f ~trace:ctrace cell)
    in
    let line = line_of ~sweep ~repro ?trace_file cell (codec.encode value) in
    let wall_s = Unix.gettimeofday () -. t0 in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        Option.iter
          (fun oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
          oc;
        progress cell ~wall_s ~was_cached:false);
    { cell; value; cached = false }
  in
  let compute (cell : Grid.cell) =
    match Hashtbl.find_opt cached cell.id with
    | None -> fresh cell
    | Some payload -> (
        match codec.decode payload with
        | None -> fresh cell (* stale or foreign record: recompute *)
        | Some value ->
            Mutex.lock mutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock mutex)
              (fun () -> progress cell ~wall_s:0.0 ~was_cached:true);
            { cell; value; cached = true })
  in
  let domains = Option.value domains ~default:(Parallel.default_domains ()) in
  let outcomes = Parallel.map ~domains compute cells_arr in
  Option.iter close_out oc;
  (* Canonical rewrite: the finished checkpoint is the sweep's artifact —
     one record per cell in expansion order, byte-identical however the
     run was sharded or interrupted (the codec round-trips exactly, so
     re-encoding a cached value reproduces its original line). *)
  Option.iter
    (fun path ->
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Array.iter
        (fun o ->
          output_string oc
            (line_of ~sweep ~repro ?trace_file:(trace_file o.cell) o.cell
               (codec.encode o.value));
          output_char oc '\n')
        outcomes;
      close_out oc;
      Sys.rename tmp path)
    checkpoint;
  Array.to_list outcomes

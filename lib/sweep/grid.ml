type binding = {
  label : string;
  apply : Simnet.Scenario.t -> (Simnet.Scenario.t, string) result;
}

type axis = { axis_name : string; values : binding list }

(* Float axis labels use the shared shortest-roundtrip repr, so they are
   both readable and lossless (same convention as Scenario.to_spec). *)
let float_label = Stats.Float_text.repr

let free name labels =
  {
    axis_name = name;
    values = List.map (fun label -> { label; apply = Result.ok }) labels;
  }

let strings name labels = free name labels
let floats name vs = free name (List.map float_label vs)

let scenario_key key labels =
  {
    axis_name = key;
    values =
      List.map
        (fun label ->
          {
            label;
            apply = (fun sc -> Simnet.Scenario.of_args ~base:sc [ (key, label) ]);
          })
        labels;
  }

type cell = {
  index : int;
  id : string;
  bindings : (string * string) list;
  scenario : Simnet.Scenario.t;
  seed : int64;
}

(* FNV-1a over the (sweep, cell id) pair, finished with the SplitMix64
   avalanche: a stable, implementation-independent seed derivation, so a
   cell's randomness is a pure function of its identity — the property
   resume and sharding rely on. *)
let seed_of ~sweep id =
  let h = ref 0xcbf29ce484222325L in
  let feed s =
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s
  in
  feed sweep;
  feed "\x1f";
  feed id;
  Prng.Splitmix64.mix !h

let id_of_bindings = function
  | [] -> "default"
  | bindings ->
      String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) bindings)

let check_axes axes =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc ax ->
      Result.bind acc (fun () ->
          if Hashtbl.mem seen ax.axis_name then
            Error (Printf.sprintf "sweep: duplicate axis %S" ax.axis_name)
          else begin
            Hashtbl.add seen ax.axis_name ();
            if ax.values = [] then
              Error (Printf.sprintf "sweep: axis %S has no values" ax.axis_name)
            else
              let labels = Hashtbl.create 8 in
              List.fold_left
                (fun acc b ->
                  Result.bind acc (fun () ->
                      if Hashtbl.mem labels b.label then
                        Error
                          (Printf.sprintf
                             "sweep: axis %S repeats value %S" ax.axis_name
                             b.label)
                      else begin
                        Hashtbl.add labels b.label ();
                        Ok ()
                      end))
                (Ok ()) ax.values
          end))
    (Ok ()) axes

let expand ?(base = Simnet.Scenario.default) ~sweep axes =
  Result.bind (check_axes axes) (fun () ->
      (* Row-major over the axes in order: the first axis varies slowest,
         the last fastest — the nesting order of the hand-written loops
         the grids replace. *)
      let rec combos acc = function
        | [] -> Ok [ List.rev acc ]
        | ax :: rest ->
            let rec per_value out = function
              | [] -> Ok (List.concat (List.rev out))
              | b :: bs -> (
                  match combos ((ax.axis_name, b) :: acc) rest with
                  | Ok cs -> per_value (cs :: out) bs
                  | Error _ as e -> e)
            in
            per_value [] ax.values
      in
      Result.bind (combos [] axes) (fun combos ->
          let rec build index acc = function
            | [] -> Ok (List.rev acc)
            | combo :: rest ->
                let bindings = List.map (fun (k, b) -> (k, b.label)) combo in
                let id = id_of_bindings bindings in
                let scenario =
                  List.fold_left
                    (fun acc (_, b) -> Result.bind acc b.apply)
                    (Ok base) combo
                in
                (match scenario with
                | Error e -> Error (Printf.sprintf "sweep: cell %s: %s" id e)
                | Ok scenario ->
                    build (index + 1)
                      ({
                         index;
                         id;
                         bindings;
                         scenario;
                         seed = seed_of ~sweep id;
                       }
                      :: acc)
                      rest)
          in
          build 0 [] combos))

let cell_rng c = Prng.Stream.of_seed c.seed

let binding c name =
  match List.assoc_opt name c.bindings with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Sweep.Grid.binding: cell %S has no axis %S" c.id name)

let int_binding c name =
  let v = binding c name in
  match int_of_string_opt v with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Sweep.Grid.int_binding: axis %S of cell %S holds %S"
           name c.id v)

let float_binding c name =
  let v = binding c name in
  match float_of_string_opt v with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Sweep.Grid.float_binding: axis %S of cell %S holds %S"
           name c.id v)

type mode = Repair | Static

let mode_to_string = function Repair -> "repair" | Static -> "static"

let mode_of_string = function
  | "repair" -> Ok Repair
  | "static" -> Ok Static
  | s -> Error (Printf.sprintf "unknown stabilize mode %S (repair|static)" s)

type report = {
  mode : mode;
  converged : bool;
  epochs : int;
  rounds : int;
  bits : int;
  initial_violations : int;
  residual : Simnet.Invariants.violation list;
  patches : int;
  splices : int;
  reconfigs : int;
  retries : int;
}

let kind_counts viols =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun v ->
      let k = Simnet.Invariants.kind_of v in
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.add tbl k 1;
          order := k :: !order
      | Some c -> Hashtbl.replace tbl k (c + 1))
    viols;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

(* A uniformly random Hamilton cycle over [0..n-1] as a successor array. *)
let random_cycle rng n =
  let order = Prng.Stream.permutation rng n in
  let succ = Array.make n 0 in
  for i = 0 to n - 1 do
    succ.(order.(i)) <- order.((i + 1) mod n)
  done;
  succ

(* Phase A — local pointer patching.  Every node can detect locally that
   its pointer is out of range, and every over-subscribed target can
   detect the collision and keep only its lowest-indexed predecessor; the
   displaced pointers are re-aimed, in node order, at the targets nobody
   points to (also in order).  The two sets always have equal size (both
   equal m minus the number of covered targets), so one full patch pass
   turns any successor array into a permutation.  Each patch is one
   communication leg carrying one id, re-attempted within the per-node
   budget. *)
let patch_cycle rt ~attempts ~idb succ =
  let m = Array.length succ in
  let keeper = Array.make m (-1) in
  let victims = ref [] in
  Array.iteri
    (fun v s ->
      if s < 0 || s >= m then victims := v :: !victims
      else if keeper.(s) = -1 then keeper.(s) <- v
      else victims := v :: !victims)
    succ;
  let victims = List.rev !victims in
  let missing = ref [] in
  for s = m - 1 downto 0 do
    if keeper.(s) = -1 then missing := s :: !missing
  done;
  let patched = ref 0
  and failed = ref 0
  and waves = ref 0
  and bits = ref 0
  and retries = ref 0 in
  List.iter2
    (fun v target ->
      let rec attempt i =
        if i >= attempts then incr failed
        else begin
          bits := !bits + Simnet.Msg_size.ids_msg ~id_bits:idb ~count:1;
          if i > 0 then incr retries;
          if i + 1 > !waves then waves := i + 1;
          if Simnet.Runtime.leg rt ~dst:v () then begin
            succ.(v) <- target;
            incr patched
          end
          else attempt (i + 1)
        end
      in
      attempt 0)
    victims !missing;
  (!patched, !failed, !waves, !bits, !retries)

let orbit_reps succ =
  let m = Array.length succ in
  let visited = Array.make m false in
  let reps = ref [] in
  for v = 0 to m - 1 do
    if not visited.(v) then begin
      reps := v :: !reps;
      let u = ref v in
      while not visited.(!u) do
        visited.(!u) <- true;
        u := succ.(!u)
      done
    end
  done;
  List.rev !reps

(* Phase B — orbit splicing.  Swapping the successors of two nodes from
   different orbits of a permutation merges the orbits into one; waves of
   pairwise merges need ceil(log2 orbits) successful rounds.  Each merge
   is a two-leg pointer exchange; a lost exchange (budget exhausted)
   leaves both orbits for the next wave or epoch. *)
let splice_cycle rt ~attempts ~idb succ =
  let splices = ref 0
  and waves = ref 0
  and bits = ref 0
  and retries = ref 0 in
  let progress = ref true in
  let rec loop () =
    let reps = orbit_reps succ in
    if List.length reps > 1 && !progress then begin
      progress := false;
      incr waves;
      let rec pair = function
        | a :: b :: rest ->
            let rec attempt i =
              if i < attempts then begin
                bits := !bits + (2 * Simnet.Msg_size.ids_msg ~id_bits:idb ~count:1);
                if i > 0 then incr retries;
                if Simnet.Runtime.leg rt ~src:a ~dst:b ()
                   && Simnet.Runtime.leg rt ~src:b ~dst:a ()
                then begin
                  let sa = succ.(a) in
                  succ.(a) <- succ.(b);
                  succ.(b) <- sa;
                  incr splices;
                  progress := true
                end
                else attempt (i + 1)
              end
            in
            attempt 0;
            pair rest
        | _ -> ()
      in
      pair reps;
      loop ()
    end
  in
  loop ();
  (!splices, List.length (orbit_reps succ) - 1, !waves, !bits, !retries)

let run ?(trace = Simnet.Trace.null) ?(mode = Repair) ?(max_epochs = 16)
    ?(retry = Retry.fixed) ?faults ~corruption ~rng ~n ~d () =
  if n < 4 then invalid_arg "Stabilize.run: n must be >= 4";
  if d < 2 then invalid_arg "Stabilize.run: d must be >= 2";
  if max_epochs < 1 then invalid_arg "Stabilize.run: max_epochs must be >= 1";
  let k = max 1 (d / 2) in
  let succs =
    Simnet.Corruption.apply corruption
      (Array.init k (fun _ -> random_cycle rng n))
  in
  let rt =
    Simnet.Runtime.create ~trace ?faults
      ~supports:[ `Drop; `Duplicate; `Delay ]
      ~who:"Core.Stabilize" ~n ()
  in
  let idb = Simnet.Msg_size.id_bits n in
  let attempts = 1 + retry.Retry.max_retries in
  let total_rounds = ref 0
  and total_bits = ref 0
  and patches = ref 0
  and splices = ref 0
  and reconfigs = ref 0
  and retries = ref 0 in
  let initial = Simnet.Invariants.check_all ~m:n succs in
  let initial_violations = List.length initial in
  let residual = ref initial in
  let epochs = ref 0 in
  let detect_note epoch viols =
    Simnet.Runtime.note rt ~name:"repair/detect"
      (("epoch", Simnet.Trace.Int epoch)
      :: ("violations", Simnet.Trace.Int (List.length viols))
      :: List.map
           (fun (k, c) -> (k, Simnet.Trace.Int c))
           (kind_counts viols))
  in
  let repair_epoch rt =
    let epoch = !epochs in
    let viols = Simnet.Invariants.check_all ~m:n succs in
    detect_note epoch viols;
    (* Detection itself costs one round of local exchange. *)
    let rounds = ref 1 in
    if viols = [] then residual := []
    else if mode = Static then residual := viols
    else begin
      Array.iter
        (fun succ ->
          let p, _failed, waves, bits, r = patch_cycle rt ~attempts ~idb succ in
          if p > 0 || waves > 0 then begin
            patches := !patches + p;
            retries := !retries + r;
            total_bits := !total_bits + bits;
            rounds := !rounds + waves;
            Simnet.Runtime.span rt ~name:"repair/patch" ~rounds:waves
              [
                ("epoch", Simnet.Trace.Int epoch);
                ("patched", Simnet.Trace.Int p);
                ("bits", Simnet.Trace.Int bits);
              ]
          end)
        succs;
      Array.iter
        (fun succ ->
          (* Splicing is only meaningful on a permutation; a cycle that
             still has range/collision defects waits for the next epoch. *)
          if
            Simnet.Invariants.check_cycle_all succ
            |> List.for_all (function
                 | Simnet.Invariants.Not_single_cycle _ -> true
                 | _ -> false)
          then begin
            let s, left, waves, bits, r = splice_cycle rt ~attempts ~idb succ in
            if s > 0 || waves > 0 then begin
              splices := !splices + s;
              retries := !retries + r;
              total_bits := !total_bits + bits;
              rounds := !rounds + waves;
              Simnet.Runtime.span rt ~name:"repair/splice" ~rounds:waves
                [
                  ("epoch", Simnet.Trace.Int epoch);
                  ("spliced", Simnet.Trace.Int s);
                  ("orbits_left", Simnet.Trace.Int left);
                  ("bits", Simnet.Trace.Int bits);
                ]
            end
          end)
        succs;
      (* Once every cycle is well-formed again, one pass of the paper's
         reconfiguration path (Algorithm 3 with identity relabeling, the
         sampling oracle served from the run's stream) re-randomizes the
         repaired topology so the adversary keeps no knowledge of it. *)
      if Simnet.Invariants.check_cycles ~m:n succs = Ok () then begin
        let out_label = Array.init n Fun.id in
        let joiner_labels = Array.make n [||] in
        let sample_bits = ref 0 in
        let take_sample _ =
          sample_bits := !sample_bits + Simnet.Msg_size.ids_msg ~id_bits:idb ~count:1;
          Prng.Stream.int rng n
        in
        Array.iteri
          (fun ci succ ->
            match
              Reconfig.reconfigure ~trace:(Simnet.Runtime.trace rt)
                ?drop:(Simnet.Runtime.link_drop rt)
                ~max_retries:retry.Retry.max_retries ~rng ~succ ~out_label
                ~joiner_labels ~take_sample ~m:n ()
            with
            | Ok (new_succ, stats) ->
                incr reconfigs;
                retries := !retries + stats.Reconfig.reply_retries;
                total_bits := !total_bits + stats.Reconfig.work_bits;
                rounds := !rounds + stats.Reconfig.rounds;
                Simnet.Runtime.span rt ~name:"repair/reconfig"
                  ~rounds:stats.Reconfig.rounds
                  [
                    ("epoch", Simnet.Trace.Int epoch);
                    ("cycle", Simnet.Trace.Int ci);
                    ("bits", Simnet.Trace.Int stats.Reconfig.work_bits);
                  ];
                Array.blit new_succ 0 succ 0 n
            | Error f ->
                (* The repaired cycle stands; re-randomization is retried
                   next epoch (it is not needed for convergence). *)
                Simnet.Runtime.note rt ~name:"repair/reconfig-failed"
                  [
                    ("epoch", Simnet.Trace.Int epoch);
                    ("cycle", Simnet.Trace.Int ci);
                    ( "reason",
                      Simnet.Trace.String (Reconfig.describe_failure f) );
                  ])
          succs;
        total_bits := !total_bits + !sample_bits
      end;
      residual := Simnet.Invariants.check_all ~m:n succs
    end;
    ((), !rounds)
  in
  let continue = ref true in
  while !continue do
    let ep = Simnet.Runtime.run_epoch rt repair_epoch in
    incr epochs;
    total_rounds := !total_rounds + ep.Simnet.Runtime.rounds;
    if !residual = [] then begin
      continue := false;
      Simnet.Runtime.note rt ~name:"converged"
        [
          ("epochs", Simnet.Trace.Int !epochs);
          ("rounds", Simnet.Trace.Int !total_rounds);
          ("bits", Simnet.Trace.Int !total_bits);
          ("patches", Simnet.Trace.Int !patches);
          ("splices", Simnet.Trace.Int !splices);
        ]
    end
    else if !epochs >= max_epochs || mode = Static then begin
      continue := false;
      Simnet.Runtime.note rt ~name:"repair/residual"
        (("epochs", Simnet.Trace.Int !epochs)
        :: ("violations", Simnet.Trace.Int (List.length !residual))
        :: List.map
             (fun (k, c) -> (k, Simnet.Trace.Int c))
             (kind_counts !residual))
    end
  done;
  {
    mode;
    converged = !residual = [];
    epochs = !epochs;
    rounds = !total_rounds;
    bits = !total_bits;
    initial_violations;
    residual = !residual;
    patches = !patches;
    splices = !splices;
    reconfigs = !reconfigs;
    retries = !retries;
  }

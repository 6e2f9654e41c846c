module Sm = Split_merge
module Intvec = Topology.Intvec

let src = Logs.Src.create "overlay.churndos" ~doc:"Churn+DoS network events"

module Log = (val Logs.src_log src : Logs.LOG)

type window_report = {
  window : int;
  n_before : int;
  n_after : int;
  joined : int;
  left : int;
  reconfigured : bool;
  starved_rounds : int;
  disconnected_rounds : int;
  min_group_size : int;
  max_group_size : int;
  min_dim : int;
  max_dim : int;
  dim_spread : int;
  eq1_violations : int;
  splits : int;
  merges : int;
  supernodes : int;
}

type t = {
  rng : Prng.Stream.t;
  c : int;
  tree : Intvec.t Sm.t;
  runtime : Simnet.Runtime.t;
  mutable n : int;
  mutable labels : Sm.label array;
  mutable group_of : int array;  (* replaced, never changed in place *)
  mutable epoch : int;  (* how many times [group_of] was replaced *)
  mutable prev_blocked : bool array;
}

(* The dimension of the proof of Lemma 18: the unique d with
   2^d * 2cd < n <= 2^(d+1) * 2c(d+1). *)
let base_dimension ~c ~n =
  let fits d = (1 lsl d) * 2 * c * d < n in
  let rec go d = if fits (d + 1) then go (d + 1) else d in
  max 1 (go 1)

(* Rebuild the dense index (labels array and group_of) from the tree. *)
let densify t =
  let ls = Sm.leaves t.tree in
  let labels = Array.of_list (List.map fst ls) in
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun gi (_, members) ->
      Intvec.iter (fun v -> group_of.(v) <- gi) members)
    ls;
  t.labels <- labels;
  t.group_of <- group_of;
  t.epoch <- t.epoch + 1

let eq1_low c dim = (c * dim) - c
let eq1_high c dim = 2 * c * dim

(* Enforce Equation (1) by splitting oversized and merging undersized
   leaves; member division on split is uniform per node, as in the paper. *)
let enforce_eq1 t =
  let splits = ref 0 and merges = ref 0 in
  let changed = ref true and guard = ref 0 in
  while !changed && !guard < 64 do
    changed := false;
    incr guard;
    List.iter
      (fun (l, _) ->
        match Sm.find t.tree l with
        | Some members when Intvec.length members > eq1_high t.c l.Sm.dim ->
            Sm.split t.tree l (fun ms ->
                (* Balanced random equipartition: a random half goes to each
                   child.  Exact halving is what makes "too large for one"
                   and "too small for two" mutually exclusive (Lemma 18). *)
                let arr = Intvec.to_array ms in
                Prng.Stream.shuffle_in_place t.rng arr;
                let half = Array.length arr / 2 in
                let a = Intvec.create () and b = Intvec.create () in
                Array.iteri
                  (fun i v ->
                    if i < half then Intvec.push a v else Intvec.push b v)
                  arr;
                (a, b));
            incr splits;
            changed := true
        | _ -> ())
      (Sm.leaves t.tree);
    List.iter
      (fun (l, _) ->
        match Sm.find t.tree l with
        | Some members
          when l.Sm.dim > 1 && Intvec.length members < eq1_low t.c l.Sm.dim ->
            Sm.merge t.tree l (fun a b ->
                let m = Intvec.create () in
                Intvec.iter (fun v -> Intvec.push m v) a;
                Intvec.iter (fun v -> Intvec.push m v) b;
                m);
            incr merges;
            changed := true
        | _ -> ())
      (Sm.leaves t.tree)
  done;
  (!splits, !merges)

let create ?(c = 8) ?(trace = Simnet.Trace.null) ?faults ~rng ~n () =
  if c < 2 then invalid_arg "Churndos_network.create: c < 2";
  if n < 64 then invalid_arg "Churndos_network.create: n too small";
  let d = base_dimension ~c ~n in
  let tree = Sm.create () in
  for bits = 0 to (1 lsl d) - 1 do
    Sm.add_leaf tree { Sm.bits; dim = d } (Intvec.create ())
  done;
  (* Groups exchange aggregate state, not individual request/reply legs,
     so there is no honest place to apply per-message link faults: only
     the crash schedule (blocking whole nodes) is supported. *)
  let runtime =
    Simnet.Runtime.create ~trace ?faults
      ~supports:[ `Crash; `Recover ]
      ~who:"Churndos_network" ~n ()
  in
  let t =
    {
      rng;
      c;
      tree;
      runtime;
      n;
      labels = [||];
      group_of = [||];
      epoch = 0;
      prev_blocked = Array.make n false;
    }
  in
  (* Initial scatter: uniform over the uniform-dimension tree (equivalently,
     weight 2^-d each), then restore Equation (1). *)
  for v = 0 to n - 1 do
    let l = Sm.sample tree t.rng in
    match Sm.find tree l with
    | Some members -> Intvec.push members v
    | None -> assert false
  done;
  ignore (enforce_eq1 t);
  densify t;
  t

let n t = t.n
let supernode_count t = Sm.leaf_count t.tree
let group_of t = Array.copy t.group_of
let epoch t = t.epoch
let dims t = Array.map (fun (l : Sm.label) -> l.Sm.dim) t.labels

let period t =
  let iters = Params.log2i_ceil (max 2 (Sm.max_dim t.tree)) in
  (4 * iters) + 4

(* Occupied-leaf connectivity: like Dos_network, the non-blocked subgraph is
   connected iff the occupied leaves form a connected subgraph under the
   Section 6 adjacency rule. *)
let occupied_connected t ~blocked =
  let k = Array.length t.labels in
  let occupied = Array.make k false in
  Array.iteri
    (fun v gi -> if not blocked.(v) then occupied.(gi) <- true)
    t.group_of;
  let start = ref (-1) in
  for gi = k - 1 downto 0 do
    if occupied.(gi) then start := gi
  done;
  if !start < 0 then true
  else begin
    let seen = Array.make k false in
    let queue = Queue.create () in
    seen.(!start) <- true;
    Queue.push !start queue;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      let gi = Queue.pop queue in
      incr visited;
      for gj = 0 to k - 1 do
        if
          occupied.(gj) && (not seen.(gj))
          && Sm.connected t.labels.(gi) t.labels.(gj)
        then begin
          seen.(gj) <- true;
          Queue.push gj queue
        end
      done
    done;
    let total = Array.fold_left (fun a o -> if o then a + 1 else a) 0 occupied in
    !visited = total
  end

let run_one_window t ~blocked_for_round ~joins ~leave_frac =
  if joins < 0 then invalid_arg "Churndos_network.run_window: joins < 0";
  if leave_frac < 0.0 || leave_frac > 1.0 then
    invalid_arg "Churndos_network.run_window: leave_frac out of [0,1]";
  let rt = t.runtime in
  let window = Simnet.Runtime.epoch rt in
  let n_before = t.n in
  let p = period t in
  let starved_rounds = ref 0 and disconnected_rounds = ref 0 in
  for _ = 1 to p do
    Simnet.Runtime.tick rt;
    let blocked =
      blocked_for_round ~round:(Simnet.Runtime.round rt) ~group_of:t.group_of
        ~n:t.n
    in
    if Array.length blocked <> t.n then
      invalid_arg "Churndos_network: blocked array size mismatch";
    (* Crashed nodes are unavailable exactly like adversary-blocked ones;
       copy the caller's array only when a plan is installed. *)
    let blocked =
      if Simnet.Runtime.faulty rt then begin
        let merged = Array.copy blocked in
        for v = 0 to t.n - 1 do
          if Simnet.Runtime.crashed rt v then merged.(v) <- true
        done;
        merged
      end
      else blocked
    in
    (* Availability per group: a member non-blocked in the previous and the
       current round. *)
    let k = Array.length t.labels in
    let avail = Array.make k false in
    for v = 0 to t.n - 1 do
      if (not blocked.(v)) && not t.prev_blocked.(v) then
        avail.(t.group_of.(v)) <- true
    done;
    let starved = Array.exists not avail in
    if starved then incr starved_rounds;
    if not (occupied_connected t ~blocked) then incr disconnected_rounds;
    Array.blit blocked 0 t.prev_blocked 0 t.n;
    if Simnet.Runtime.traced rt then begin
      (* The canonical simulation exchanges no individual messages; the
         Round event carries the availability picture only. *)
      let blocked_count =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked
      in
      Simnet.Runtime.emit_round rt ~msgs:0 ~bits:0 ~max_node_bits:0
        ~max_node_msgs:0 ~blocked:blocked_count
    end;
    Simnet.Runtime.advance rt ~rounds:1
  done;
  (* Window boundary: apply churn and reconfigure. *)
  let leave_count =
    min (int_of_float (leave_frac *. float_of_int t.n)) (t.n - 16)
  in
  let leaving = Array.make t.n false in
  Array.iter
    (fun v -> leaving.(v) <- true)
    (Prng.Stream.sample_distinct t.rng t.n ~k:(max 0 leave_count));
  let survivors = t.n - leave_count in
  let n_after = survivors + joins in
  let healthy = !starved_rounds = 0 in
  let splits = ref 0 and merges = ref 0 in
  let reconfigured =
    if healthy then begin
      (* Rescatter every survivor and joiner with the 2^-d(x) weights,
         using the weighted sampling primitive of Section 6 (Algorithm 2
         run on the virtual full cube the leaves cover): each current group
         samples destination supernodes and scatters its units, exactly as
         in Section 5. *)
      let ordered = Sm.leaves t.tree in
      let k = List.length ordered in
      (* Units per (old) leaf: surviving members stay attributed to their
         group; each joiner was delegated to a uniformly random current
         member, i.e. to a group with probability proportional to its
         size. *)
      let units = Array.make k 0 in
      List.iteri
        (fun i (_, members) ->
          let survivors_here =
            Intvec.fold
              (fun acc v -> if leaving.(v) then acc else acc + 1)
              0 members
          in
          units.(i) <- survivors_here)
        ordered;
      for _ = 1 to joins do
        let rec pick () =
          let v = Prng.Stream.int t.rng t.n in
          if leaving.(v) then pick () else v
        in
        let g = t.group_of.(pick ()) in
        units.(g) <- units.(g) + 1
      done;
      let max_units = Array.fold_left max 0 units in
      let d_max = Sm.max_dim t.tree in
      let c_sample =
        Float.max 2.0 ((float_of_int max_units /. float_of_int (max 1 d_max)) +. 1.0)
      in
      let rw = Rapid_weighted.run ~c:c_sample ~rng:(Prng.Stream.split t.rng) t.tree in
      (* Scatter: old leaf i sends its j-th unit to pools.(i).(j). *)
      let arrivals = Array.make k 0 in
      Array.iteri
        (fun i count ->
          let pool = rw.Rapid_weighted.pools.(i) in
          for j = 0 to count - 1 do
            let dest =
              if j < Array.length pool then pool.(j)
              else begin
                (* pool underflow: direct weighted fallback *)
                let l = Sm.sample t.tree t.rng in
                let rec index_of i = function
                  | [] -> assert false
                  | (l', _) :: rest -> if l' = l then i else index_of (i + 1) rest
                in
                index_of 0 ordered
              end
            in
            arrivals.(dest) <- arrivals.(dest) + 1
          done)
        units;
      (* Install the new membership with fresh node indices in a uniformly
         random order. *)
      let ids = Prng.Stream.permutation t.rng n_after in
      let counter = ref 0 in
      List.iteri
        (fun i (_, members) ->
          Intvec.clear members;
          for _ = 1 to arrivals.(i) do
            Intvec.push members ids.(!counter);
            incr counter
          done)
        ordered;
      t.n <- n_after;
      let s, m = enforce_eq1 t in
      splits := s;
      merges := m;
      densify t;
      Simnet.Runtime.resize rt ~n:t.n;
      t.prev_blocked <- Array.make t.n false;
      true
    end
    else begin
      (* State loss: leavers vanish, joiners cannot integrate; compact the
         survivors in place without rescattering. *)
      let remap = Array.make t.n (-1) in
      let next = ref 0 in
      for v = 0 to t.n - 1 do
        if not leaving.(v) then begin
          remap.(v) <- !next;
          incr next
        end
      done;
      Sm.iter
        (fun _ members ->
          let kept = Intvec.create () in
          Intvec.iter
            (fun v -> if remap.(v) >= 0 then Intvec.push kept (remap.(v)))
            members;
          Intvec.clear members;
          Intvec.iter (fun v -> Intvec.push members v) kept)
        t.tree;
      t.n <- survivors;
      densify t;
      Simnet.Runtime.resize rt ~n:t.n;
      t.prev_blocked <- Array.make t.n false;
      false
    end
  in
  (* Invariant measurements (Lemma 18 / Equation 1). *)
  let sizes = ref [] and violations = ref 0 in
  Sm.iter
    (fun l members ->
      let size = Intvec.length members in
      sizes := size :: !sizes;
      if size < eq1_low t.c l.Sm.dim || size > eq1_high t.c l.Sm.dim then
        incr violations)
    t.tree;
  let min_sz = List.fold_left min max_int !sizes
  and max_sz = List.fold_left max 0 !sizes in
  let min_dim = Sm.min_dim t.tree and max_dim = Sm.max_dim t.tree in
  let report =
    {
      window;
      n_before;
      n_after = t.n;
      joined = (if reconfigured then joins else 0);
      left = leave_count;
      reconfigured;
      starved_rounds = !starved_rounds;
      disconnected_rounds = !disconnected_rounds;
      min_group_size = min_sz;
      max_group_size = max_sz;
      min_dim;
      max_dim;
      dim_spread = max_dim - min_dim;
      eq1_violations = !violations;
      splits = !splits;
      merges = !merges;
      supernodes = Sm.leaf_count t.tree;
    }
  in
  Log.debug (fun k ->
      k "window %d: n %d -> %d, reconfigured=%b, splits=%d merges=%d dims=[%d..%d]"
        report.window report.n_before report.n_after report.reconfigured
        report.splits report.merges report.min_dim report.max_dim);
  Simnet.Runtime.note rt ~name:"churndos/window"
    [
      ("window", Simnet.Trace.Int report.window);
      ("n_before", Simnet.Trace.Int report.n_before);
      ("n_after", Simnet.Trace.Int report.n_after);
      ("joined", Simnet.Trace.Int report.joined);
      ("left", Simnet.Trace.Int report.left);
      ("reconfigured", Simnet.Trace.Bool report.reconfigured);
      ("starved_rounds", Simnet.Trace.Int report.starved_rounds);
      ("disconnected_rounds", Simnet.Trace.Int report.disconnected_rounds);
      ("dim_spread", Simnet.Trace.Int report.dim_spread);
      ("eq1_violations", Simnet.Trace.Int report.eq1_violations);
      ("splits", Simnet.Trace.Int report.splits);
      ("merges", Simnet.Trace.Int report.merges);
      ("supernodes", Simnet.Trace.Int report.supernodes);
    ];
  (report, p)

let run_window t ~blocked_for_round ~joins ~leave_frac =
  let ep =
    Simnet.Runtime.run_epoch t.runtime (fun _rt ->
        run_one_window t ~blocked_for_round ~joins ~leave_frac)
  in
  ep.Simnet.Runtime.result

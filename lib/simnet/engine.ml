type losses = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crash_lost : int;
}

(* ---------- sharded struct-of-arrays round core ----------

   Nodes are split into K = ceil(n / 2^shard_bits) destination shards.
   A send is appended to the staging lane for its (sender-shard,
   dest-shard) pair: three parallel planes (srcs, dsts, msgs) with a fill
   pointer, grown by doubling and reused across rounds.  The int planes
   are Bigarrays — unboxed, outside the scanned heap, and safely shared
   across domains; the msgs plane is an [Obj.t array] so one immediate
   dummy ([Obj.repr 0]) serves every message type (a polymorphic ['msg]
   dummy would tempt the compiler into flat float arrays) and clearing a
   consumed slot is a plain fill, so no round retains message payloads it
   already delivered.

   Delivery merges each dest shard's column of K lanes with a counting
   sort: count per-destination arrivals, prefix-sum into offsets, then
   scatter into one contiguous (srcs, msgs) run per shard.  A node's
   inbox is then the slice [offs.(d) .. offs.(d+1)) of its shard — a
   linear sweep instead of n random mailbox hops.

   Determinism: the scatter walks lanes in (sender-shard asc, push-order
   asc) order, so a destination's inbox order is "sender shard first,
   then send order".  Every driver in this repository sends only from the
   compute step with [~src:me], and compute runs over ascending node ids,
   so this equals the historical global send order at ANY shard count and
   ANY domain count — same-seed traces are byte-identical whether the
   round ran on 1 domain or 8.  (A manual out-of-compute send with
   descending [src] across shard boundaries is the one case where the
   order differs from strict chronology; the .mli documents the order
   contract as sender-shard-major.)

   Domain parallelism: with [domains > 1] the merge phase (and, on the
   fault-free fast paths, inbox construction / sharded compute) runs one
   shard per task via [Parallel.iter].  Each task touches only its own
   shard's planes and its own row of lanes, so the phases are data-race
   free, and the merged order above is position-determined — parallelism
   cannot reorder anything.  Fault rolls, metrics, and trace emission
   stay sequential: the fault stream's consumption must remain a pure
   function of the traffic, in global destination order. *)

type iplane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let iplane len : iplane =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max len 1)

let obj_nil : Obj.t = Obj.repr 0

type lane = {
  mutable l_srcs : iplane;
  mutable l_dsts : iplane;
  mutable l_msgs : Obj.t array;
  mutable l_len : int;
  mutable l_cap : int;
}

type shard = {
  sh_base : int;
  sh_size : int;
  sh_counts : iplane; (* per-dst arrival counts, reused as scatter cursors *)
  sh_offs : iplane; (* sh_size + 1 prefix offsets into the merged planes *)
  mutable sh_srcs : iplane; (* merged arrivals, grouped by destination *)
  mutable sh_msgs : Obj.t array;
  mutable sh_cap : int;
  mutable sh_len : int;
}

(* A node's merged inbox as a zero-allocation window over its shard's
   planes; reused across nodes, valid only during the compute callback. *)
type 'msg slice = {
  mutable s_srcs : iplane;
  mutable s_msgs : Obj.t array;
  mutable s_lo : int;
  mutable s_hi : int;
}

type 'msg t = {
  n : int;
  msg_bits : 'msg -> int;
  shard_bits : int;
  shard_count : int;
  shards : shard array;
  lanes : lane array; (* shard_count^2, row-major by sender shard *)
  domains : int;
  mutable round : int;
  mutable blocked : int -> bool;
  (* Messages held back by a delay fault, keyed by destination:
     (due_round, src, msg), newest first.  [[||]] until the first delay
     fault fires, so fault-free million-node runs never pay n empty
     lists. *)
  mutable delayed : (int * int * 'msg) list array;
  (* Reusable inbox-list cells for the list-based delivery path; [[||]]
     until that path first runs (the flat path never allocates them). *)
  mutable inboxes : (int * 'msg) list array;
  (* Destinations whose [inboxes] cell was set this round (slow path), so
     the post-compute clear touches exactly those. *)
  mutable touched : int array;
  mutable touched_len : int;
  mutable cleanup : [ `None | `Offs | `Touched ];
  (* Whether any [send] was attempted this round; a [set_blocked] after that
     point would mis-apply the blocking rule to already-queued messages. *)
  mutable sent_this_round : bool;
  faults : Faults.t option;
  mutable lost_dropped : int;
  mutable lost_duplicated : int;
  mutable lost_delayed : int;
  mutable lost_crash : int;
  metrics : Metrics.t option;
  trace : Trace.t;
}

let nobody_blocked _ = false

(* 2^14 destinations per shard keeps a shard's merged planes and offset
   table L2-resident while bounding the lane table at K^2 = 4096 records
   for n = 10^6.  OVERLAY_SHARD_BITS overrides for tests that want many
   shards at small n. *)
let default_shard_bits () =
  let bits =
    match Sys.getenv_opt "OVERLAY_SHARD_BITS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some b -> b | None -> 14)
    | None -> 14
  in
  min 20 (max 4 bits)

let create ?(metrics = true) ?(trace = Trace.null) ?faults ?domains ?shard_bits
    ~n ~msg_bits () =
  if n <= 0 then invalid_arg "Engine.create: n <= 0";
  let shard_bits =
    match shard_bits with
    | Some b -> min 20 (max 4 b)
    | None -> default_shard_bits ()
  in
  let size = 1 lsl shard_bits in
  let shard_count = (n + size - 1) / size in
  let shards =
    Array.init shard_count (fun s ->
        let base = s * size in
        let sz = min size (n - base) in
        {
          sh_base = base;
          sh_size = sz;
          sh_counts = iplane sz;
          sh_offs = iplane (sz + 1);
          sh_srcs = iplane 0;
          sh_msgs = [||];
          sh_cap = 0;
          sh_len = 0;
        })
  in
  let lanes =
    Array.init (shard_count * shard_count) (fun _ ->
        { l_srcs = iplane 0; l_dsts = iplane 0; l_msgs = [||]; l_len = 0; l_cap = 0 })
  in
  {
    n;
    msg_bits;
    shard_bits;
    shard_count;
    shards;
    lanes;
    domains =
      max 1
        (match domains with Some d -> d | None -> Parallel.default_domains ());
    round = 0;
    blocked = nobody_blocked;
    delayed = [||];
    inboxes = [||];
    touched = [||];
    touched_len = 0;
    cleanup = `None;
    sent_this_round = false;
    faults =
      (match faults with
      | Some plan when not (Faults.is_none plan) -> Some (Faults.install plan ~n)
      | _ -> None);
    lost_dropped = 0;
    lost_duplicated = 0;
    lost_delayed = 0;
    lost_crash = 0;
    metrics = (if metrics then Some (Metrics.create ~n) else None);
    trace;
  }

let round t = t.round
let shard_count t = t.shard_count

let losses t =
  {
    dropped = t.lost_dropped;
    duplicated = t.lost_duplicated;
    delayed = t.lost_delayed;
    crash_lost = t.lost_crash;
  }

let fault_plan t = Option.map Faults.plan t.faults

let is_crashed t v =
  match t.faults with Some f -> Faults.crashed f v | None -> false

let set_blocked t f =
  if t.sent_this_round then
    invalid_arg "Engine.set_blocked: called after sends in this round";
  t.blocked <- f

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg ("Engine." ^ name ^ ": node out of range")

let grow_lane lane =
  let cap' = max 64 (2 * lane.l_cap) in
  let srcs' = iplane cap' and dsts' = iplane cap' in
  if lane.l_len > 0 then begin
    Bigarray.Array1.blit
      (Bigarray.Array1.sub lane.l_srcs 0 lane.l_len)
      (Bigarray.Array1.sub srcs' 0 lane.l_len);
    Bigarray.Array1.blit
      (Bigarray.Array1.sub lane.l_dsts 0 lane.l_len)
      (Bigarray.Array1.sub dsts' 0 lane.l_len)
  end;
  let msgs' = Array.make cap' obj_nil in
  Array.blit lane.l_msgs 0 msgs' 0 lane.l_len;
  lane.l_srcs <- srcs';
  lane.l_dsts <- dsts';
  lane.l_msgs <- msgs';
  lane.l_cap <- cap'

let send t ~src ~dst msg =
  check_node t src "send";
  check_node t dst "send";
  t.sent_this_round <- true;
  if is_crashed t src || is_crashed t dst then
    (* A crashed endpoint behaves like a permanently blocked one, except the
       loss is observable in [losses]. *)
    t.lost_crash <- t.lost_crash + 1
  else if
    (* Send-time half of the blocking rule: src non-blocked in the send round
       and dst non-blocked in the send round. *)
    not (t.blocked src) && not (t.blocked dst)
  then begin
    (match t.metrics with
    | Some m -> Metrics.on_send m ~node:src ~bits:(t.msg_bits msg)
    | None -> ());
    let lane =
      Array.unsafe_get t.lanes
        (((src lsr t.shard_bits) * t.shard_count) + (dst lsr t.shard_bits))
    in
    let len = lane.l_len in
    if len = lane.l_cap then grow_lane lane;
    Bigarray.Array1.unsafe_set lane.l_srcs len src;
    Bigarray.Array1.unsafe_set lane.l_dsts len dst;
    Array.unsafe_set lane.l_msgs len (Obj.repr msg);
    lane.l_len <- len + 1
  end

(* ---------- merge phase ---------- *)

(* Merge dest shard [ki]'s column of lanes into its contiguous planes and
   reset the lanes.  Pure per-shard work: safe to run one task per shard. *)
let merge_shard t ki =
  let sh = Array.unsafe_get t.shards ki in
  let k = t.shard_count in
  let counts = sh.sh_counts and offs = sh.sh_offs in
  let base = sh.sh_base and sz = sh.sh_size in
  Bigarray.Array1.fill counts 0;
  let total = ref 0 in
  for si = 0 to k - 1 do
    let lane = Array.unsafe_get t.lanes ((si * k) + ki) in
    let dsts = lane.l_dsts in
    for i = 0 to lane.l_len - 1 do
      let d = Bigarray.Array1.unsafe_get dsts i - base in
      Bigarray.Array1.unsafe_set counts d (Bigarray.Array1.unsafe_get counts d + 1)
    done;
    total := !total + lane.l_len
  done;
  let acc = ref 0 in
  for d = 0 to sz - 1 do
    Bigarray.Array1.unsafe_set offs d !acc;
    acc := !acc + Bigarray.Array1.unsafe_get counts d
  done;
  Bigarray.Array1.unsafe_set offs sz !acc;
  (* counts become the scatter cursors *)
  Bigarray.Array1.blit (Bigarray.Array1.sub offs 0 sz) counts;
  if !total > sh.sh_cap then begin
    let cap' = max 1024 (max !total (2 * sh.sh_cap)) in
    sh.sh_srcs <- iplane cap';
    sh.sh_msgs <- Array.make cap' obj_nil;
    sh.sh_cap <- cap'
  end;
  sh.sh_len <- !total;
  let m_srcs = sh.sh_srcs and m_msgs = sh.sh_msgs in
  (* Scatter in (sender-shard, push-order) order — the engine's inbox
     order contract — and clear each lane's payload refs behind us. *)
  for si = 0 to k - 1 do
    let lane = Array.unsafe_get t.lanes ((si * k) + ki) in
    let dsts = lane.l_dsts and srcs = lane.l_srcs and msgs = lane.l_msgs in
    for i = 0 to lane.l_len - 1 do
      let d = Bigarray.Array1.unsafe_get dsts i - base in
      let pos = Bigarray.Array1.unsafe_get counts d in
      Bigarray.Array1.unsafe_set counts d (pos + 1);
      Bigarray.Array1.unsafe_set m_srcs pos (Bigarray.Array1.unsafe_get srcs i);
      Array.unsafe_set m_msgs pos (Array.unsafe_get msgs i)
    done;
    Array.fill msgs 0 lane.l_len obj_nil;
    lane.l_len <- 0
  done

let staged_total t =
  let total = ref 0 in
  Array.iter (fun lane -> total := !total + lane.l_len) t.lanes;
  !total

(* Per-round domain spawning only pays for itself on real work; below
   this many staged messages even an 8-domain merge runs sequentially. *)
let parallel_threshold = 1 lsl 15

let use_parallel t ~staged =
  t.domains > 1 && t.shard_count > 1 && staged >= parallel_threshold

let each_shard t ~parallel f =
  if parallel then Parallel.iter ~domains:t.domains f t.shard_count
  else
    for ki = 0 to t.shard_count - 1 do
      f ki
    done

(* ---------- list-based delivery (the compatibility path) ---------- *)

let ensure_inboxes t =
  if Array.length t.inboxes = 0 then t.inboxes <- Array.make t.n []

let ensure_delayed t =
  if Array.length t.delayed = 0 then t.delayed <- Array.make t.n []

let touch t dst =
  if t.touched_len = Array.length t.touched then begin
    let cap' = max 64 (2 * t.touched_len) in
    let touched' = Array.make cap' 0 in
    Array.blit t.touched 0 touched' 0 t.touched_len;
    t.touched <- touched'
  end;
  t.touched.(t.touched_len) <- dst;
  t.touched_len <- t.touched_len + 1

(* The merged slice as an oldest-first [(src, msg)] list — the order the
   list-based engine produced after its [List.rev]. *)
let slice_to_list sh lo hi : (int * _) list =
  let m_srcs = sh.sh_srcs and m_msgs = sh.sh_msgs in
  let acc = ref [] in
  for i = hi - 1 downto lo do
    acc :=
      (Bigarray.Array1.unsafe_get m_srcs i, Obj.obj (Array.unsafe_get m_msgs i))
      :: !acc
  done;
  !acc

(* Apply per-message fault rolls to an inbox (oldest first), returning the
   surviving messages in order.  Rolls are drawn in arrival order so the
   fault stream's consumption is a pure function of the traffic. *)
let apply_message_faults t f ~dst inbox =
  let traced = Trace.enabled t.trace in
  let out = ref [] in
  List.iter
    (fun (src, msg) ->
      if Faults.roll_drop f then begin
        t.lost_dropped <- t.lost_dropped + 1;
        if traced then
          Trace.emit t.trace
            (Trace.Fault
               {
                 kind = "drop";
                 round = t.round;
                 fields = [ ("src", Trace.Int src); ("dst", Trace.Int dst) ];
               })
      end
      else
        let hold = Faults.roll_delay f in
        if hold > 0 then begin
          let due = t.round + hold in
          t.lost_delayed <- t.lost_delayed + 1;
          ensure_delayed t;
          t.delayed.(dst) <- (due, src, msg) :: t.delayed.(dst);
          if traced then
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = "delay";
                   round = t.round;
                   fields =
                     [
                       ("src", Trace.Int src);
                       ("dst", Trace.Int dst);
                       ("until", Trace.Int due);
                     ];
                 })
        end
        else if Faults.roll_duplicate f then begin
          t.lost_duplicated <- t.lost_duplicated + 1;
          out := (src, msg) :: (src, msg) :: !out;
          if traced then
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = "duplicate";
                   round = t.round;
                   fields = [ ("src", Trace.Int src); ("dst", Trace.Int dst) ];
                 })
        end
        else out := (src, msg) :: !out)
    inbox;
  List.rev !out

let apply_reorder t f ~dst inbox =
  match inbox with
  | [] | [ _ ] -> inbox
  | _ ->
      let arr = Array.of_list inbox in
      if Faults.roll_reorder f arr then begin
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Fault
               {
                 kind = "reorder";
                 round = t.round;
                 fields =
                   [
                     ("dst", Trace.Int dst);
                     ("msgs", Trace.Int (Array.length arr));
                   ];
               });
        Array.to_list arr
      end
      else inbox

(* Fast-path inbox construction for dest shard [ki]: no faults, no
   metrics, every node computes — only the delivery-time blocked check
   remains.  Writes only this shard's [inboxes] cells, so shards can run
   in parallel. *)
let build_lists_shard t ki =
  let sh = Array.unsafe_get t.shards ki in
  let offs = sh.sh_offs in
  let inboxes = t.inboxes in
  for d = 0 to sh.sh_size - 1 do
    let lo = Bigarray.Array1.unsafe_get offs d in
    let hi = Bigarray.Array1.unsafe_get offs (d + 1) in
    if hi > lo then begin
      let dst = sh.sh_base + d in
      (* Lost per the Section 1.1 blocking rule; not a fault, not counted. *)
      if not (t.blocked dst) then
        Array.unsafe_set inboxes dst (slice_to_list sh lo hi)
    end
  done;
  Array.fill sh.sh_msgs 0 sh.sh_len obj_nil

(* Full per-destination delivery: crash / blocked accounting,
   matured delays, fault rolls and metrics, in global destination order so
   the fault stream consumption is unchanged from the unsharded engine.
   Sequential by construction. *)
let deliver_slow t =
  let have_delayed = Array.length t.delayed > 0 in
  for dst = 0 to t.n - 1 do
    let ki = dst lsr t.shard_bits in
    let sh = Array.unsafe_get t.shards ki in
    let d = dst - sh.sh_base in
    let lo = Bigarray.Array1.unsafe_get sh.sh_offs d in
    let hi = Bigarray.Array1.unsafe_get sh.sh_offs (d + 1) in
    let queued_len = hi - lo in
    (* Messages whose delay expired this round re-enter ahead of fresh
       traffic; they already passed their fault rolls when first delayed. *)
    let matured =
      match t.faults with
      | None -> []
      | Some _ ->
          if not have_delayed then []
          else
            let held = t.delayed.(dst) in
            if held = [] then []
            else begin
              let due, still =
                List.partition (fun (due, _, _) -> due <= t.round) held
              in
              t.delayed.(dst) <- still;
              List.rev_map (fun (_, src, msg) -> (src, msg)) due
            end
    in
    if queued_len > 0 || matured <> [] then begin
      if is_crashed t dst then
        t.lost_crash <- t.lost_crash + queued_len + List.length matured
      else if t.blocked dst then
        (* Lost per the Section 1.1 blocking rule; not a fault, not counted. *)
        ()
      else begin
        let fresh = slice_to_list sh lo hi in
        let inbox =
          match t.faults with
          | None -> fresh
          | Some f ->
              apply_reorder t f ~dst
                (matured @ apply_message_faults t f ~dst fresh)
        in
        (match t.metrics with
        | Some m ->
            List.iter
              (fun (_, msg) -> Metrics.on_recv m ~node:dst ~bits:(t.msg_bits msg))
              inbox
        | None -> ());
        t.inboxes.(dst) <- inbox;
        touch t dst
      end
    end
  done;
  (* Inbox lists hold their own (src, msg) cells; drop the merged planes'
     payload refs now so the round retains nothing it delivered. *)
  Array.iter (fun sh -> Array.fill sh.sh_msgs 0 sh.sh_len obj_nil) t.shards

let tick_faults t =
  (* Crash/recover transitions fire at the round boundary, before this
     round's deliveries. *)
  match t.faults with
  | None -> ()
  | Some f ->
      let transitions = Faults.tick f ~round:t.round in
      if Trace.enabled t.trace then
        List.iter
          (fun (node, kind) ->
            Trace.emit t.trace
              (Trace.Fault
                 {
                   kind = (match kind with `Crash -> "crash" | `Recover -> "recover");
                   round = t.round;
                   fields = [ ("node", Trace.Int node) ];
                 }))
          transitions

(* Merge the staged lanes and fill [t.inboxes] for this round. *)
let deliver_lists t =
  tick_faults t;
  let staged = staged_total t in
  let parallel = use_parallel t ~staged in
  each_shard t ~parallel (merge_shard t);
  ensure_inboxes t;
  let fast =
    (match t.faults with None -> true | Some _ -> false)
    && match t.metrics with None -> true | Some _ -> false
  in
  if fast then begin
    each_shard t ~parallel (build_lists_shard t);
    t.cleanup <- `Offs
  end
  else begin
    deliver_slow t;
    t.cleanup <- `Touched
  end

(* Reset the inbox cells set this round, after compute consumed them.
   Must run before the next merge overwrites the offset tables. *)
let clear_inboxes t =
  (match t.cleanup with
  | `None -> ()
  | `Touched ->
      for i = 0 to t.touched_len - 1 do
        t.inboxes.(t.touched.(i)) <- []
      done;
      t.touched_len <- 0
  | `Offs ->
      Array.iter
        (fun sh ->
          let offs = sh.sh_offs in
          for d = 0 to sh.sh_size - 1 do
            if
              Bigarray.Array1.unsafe_get offs (d + 1)
              > Bigarray.Array1.unsafe_get offs d
            then t.inboxes.(sh.sh_base + d) <- []
          done)
        t.shards);
  t.cleanup <- `None

let end_round t =
  let summary =
    match t.metrics with Some m -> Some (Metrics.finish_round m) | None -> None
  in
  if Trace.enabled t.trace then begin
    let blocked = ref 0 in
    for v = 0 to t.n - 1 do
      if t.blocked v then incr blocked
    done;
    let ev =
      match summary with
      | Some s -> Trace.round_of_summary ~blocked:!blocked s
      | None ->
          Trace.Round
            {
              round = t.round;
              msgs = 0;
              bits = 0;
              max_node_bits = 0;
              max_node_msgs = 0;
              blocked = !blocked;
            }
    in
    Trace.emit t.trace ev
  end;
  t.round <- t.round + 1;
  t.blocked <- nobody_blocked;
  t.sent_this_round <- false

let deliver_and_step t f =
  deliver_lists t;
  let r = t.round in
  let inboxes = t.inboxes in
  for v = 0 to t.n - 1 do
    if not (t.blocked v) && not (is_crashed t v) then
      f ~round:r ~me:v ~inbox:inboxes.(v)
  done;
  clear_inboxes t;
  end_round t

(* ---------- flat delivery (the scale path) ---------- *)

let slice_len s = s.s_hi - s.s_lo

let slice_src s i =
  if i < 0 || i >= slice_len s then invalid_arg "Engine.slice_src: index";
  Bigarray.Array1.unsafe_get s.s_srcs (s.s_lo + i)

let slice_msg s i =
  if i < 0 || i >= slice_len s then invalid_arg "Engine.slice_msg: index";
  Obj.obj (Array.unsafe_get s.s_msgs (s.s_lo + i))

let slice_iter f s =
  for i = s.s_lo to s.s_hi - 1 do
    f
      ~src:(Bigarray.Array1.unsafe_get s.s_srcs i)
      (Obj.obj (Array.unsafe_get s.s_msgs i))
  done

let slice_fold f init s =
  let acc = ref init in
  for i = s.s_lo to s.s_hi - 1 do
    acc :=
      f !acc
        ~src:(Bigarray.Array1.unsafe_get s.s_srcs i)
        (Obj.obj (Array.unsafe_get s.s_msgs i))
  done;
  !acc

let deliver_and_step_flat t f =
  (match t.faults with
  | Some _ ->
      invalid_arg
        "Engine.deliver_and_step_flat: fault plans need the list delivery path"
  | None -> ());
  (match t.metrics with
  | Some _ -> invalid_arg "Engine.deliver_and_step_flat: requires ~metrics:false"
  | None -> ());
  let staged = staged_total t in
  let parallel = use_parallel t ~staged in
  each_shard t ~parallel (merge_shard t);
  let r = t.round in
  each_shard t ~parallel (fun ki ->
      let sh = Array.unsafe_get t.shards ki in
      let offs = sh.sh_offs in
      let view = { s_srcs = sh.sh_srcs; s_msgs = sh.sh_msgs; s_lo = 0; s_hi = 0 } in
      for d = 0 to sh.sh_size - 1 do
        let me = sh.sh_base + d in
        (* A blocked node neither computes nor receives; its slice is lost
           per the blocking rule (uncounted, as on the list paths). *)
        if not (t.blocked me) then begin
          view.s_lo <- Bigarray.Array1.unsafe_get offs d;
          view.s_hi <- Bigarray.Array1.unsafe_get offs (d + 1);
          f ~round:r ~me ~inbox:view
        end
      done;
      Array.fill sh.sh_msgs 0 sh.sh_len obj_nil);
  end_round t

let metrics t =
  match t.metrics with
  | Some m -> m
  | None -> invalid_arg "Engine.metrics: metrics disabled"

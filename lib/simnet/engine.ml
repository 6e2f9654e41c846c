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

   Domain parallelism: with [domains > 1] the merge phase runs one shard
   per task via [Parallel.iter].  Each task touches only its own shard's
   planes and its own row of lanes, so the merge is data-race free, and
   the merged order above is position-determined — parallelism cannot
   reorder anything.  Fault rolls and compute stay sequential: the fault
   stream's consumption must remain a pure function of the traffic, in
   global destination order, and compute callbacks may share state. *)

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

(* The messages that survive a round's fault pass, in global destination
   order: node [v]'s inbox is [f_offs.(v) .. f_offs.(v+1)) of the planes.
   One per faulted engine, grown by doubling and reused across rounds. *)
type faulted = {
  f_offs : iplane;
  mutable f_srcs : iplane;
  mutable f_msgs : Obj.t array;
  mutable f_len : int;
  mutable f_cap : int;
}

(* A node's inbox as a zero-allocation window over a shard's merged planes
   or the faulted planes; reused across nodes, valid only during the
   compute callback. *)
type 'msg slice = {
  mutable s_srcs : iplane;
  mutable s_msgs : Obj.t array;
  mutable s_lo : int;
  mutable s_hi : int;
}

type 'msg t = {
  n : int;
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
  (* Whether any [send] was attempted this round; a [set_blocked] after that
     point would mis-apply the blocking rule to already-queued messages. *)
  mutable sent_this_round : bool;
  faults : (Faults.t * faulted) option;
  mutable lost_dropped : int;
  mutable lost_duplicated : int;
  mutable lost_delayed : int;
  mutable lost_crash : int;
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

let create ?(trace = Trace.null) ?faults ?domains ?shard_bits ~n () =
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
    sent_this_round = false;
    faults =
      (match faults with
      | Some plan when not (Faults.is_none plan) ->
          Some
            ( Faults.install plan ~n,
              {
                f_offs = iplane (n + 1);
                f_srcs = iplane 0;
                f_msgs = [||];
                f_len = 0;
                f_cap = 0;
              } )
      | _ -> None);
    lost_dropped = 0;
    lost_duplicated = 0;
    lost_delayed = 0;
    lost_crash = 0;
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

let fault_plan t = Option.map (fun (f, _) -> Faults.plan f) t.faults

let is_crashed t v =
  match t.faults with Some (f, _) -> Faults.crashed f v | None -> false

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

let merge t =
  let staged = staged_total t in
  if t.domains > 1 && t.shard_count > 1 && staged >= parallel_threshold then
    Parallel.iter ~domains:t.domains (merge_shard t) t.shard_count
  else
    for ki = 0 to t.shard_count - 1 do
      merge_shard t ki
    done

(* ---------- fault pass ---------- *)

let ensure_delayed t =
  if Array.length t.delayed = 0 then t.delayed <- Array.make t.n []

let push fp src msg =
  if fp.f_len = fp.f_cap then begin
    let cap' = max 1024 (2 * fp.f_cap) in
    let srcs' = iplane cap' in
    if fp.f_len > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub fp.f_srcs 0 fp.f_len)
        (Bigarray.Array1.sub srcs' 0 fp.f_len);
    let msgs' = Array.make cap' obj_nil in
    Array.blit fp.f_msgs 0 msgs' 0 fp.f_len;
    fp.f_srcs <- srcs';
    fp.f_msgs <- msgs';
    fp.f_cap <- cap'
  end;
  Bigarray.Array1.unsafe_set fp.f_srcs fp.f_len src;
  Array.unsafe_set fp.f_msgs fp.f_len msg;
  fp.f_len <- fp.f_len + 1

let emit_fault t kind fields =
  Trace.emit t.trace (Trace.Fault { kind; round = t.round; fields })

(* Roll one fresh arrival: drop, else delay, else duplicate, pushing what
   survives this round onto the faulted planes. *)
let roll_message t f fp ~dst src msg =
  let traced = Trace.enabled t.trace in
  if Faults.roll_drop f then begin
    t.lost_dropped <- t.lost_dropped + 1;
    if traced then
      emit_fault t "drop" [ ("src", Trace.Int src); ("dst", Trace.Int dst) ]
  end
  else
    let hold = Faults.roll_delay f in
    if hold > 0 then begin
      let due = t.round + hold in
      t.lost_delayed <- t.lost_delayed + 1;
      ensure_delayed t;
      t.delayed.(dst) <- (due, src, Obj.obj msg) :: t.delayed.(dst);
      if traced then
        emit_fault t "delay"
          [ ("src", Trace.Int src); ("dst", Trace.Int dst); ("until", Trace.Int due) ]
    end
    else begin
      if Faults.roll_duplicate f then begin
        t.lost_duplicated <- t.lost_duplicated + 1;
        push fp src msg;
        if traced then
          emit_fault t "duplicate" [ ("src", Trace.Int src); ("dst", Trace.Int dst) ]
      end;
      push fp src msg
    end

(* One reorder roll over [dst]'s whole surviving inbox [lo, f_len). *)
let roll_reorder t f fp ~dst lo =
  let len = fp.f_len - lo in
  if len > 1 then begin
    let perm = Array.init len (fun i -> lo + i) in
    if Faults.roll_reorder f perm then begin
      if Trace.enabled t.trace then
        emit_fault t "reorder" [ ("dst", Trace.Int dst); ("msgs", Trace.Int len) ];
      let srcs = Array.map (Bigarray.Array1.unsafe_get fp.f_srcs) perm in
      let msgs = Array.map (Array.unsafe_get fp.f_msgs) perm in
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set fp.f_srcs (lo + i) srcs.(i);
        Array.unsafe_set fp.f_msgs (lo + i) msgs.(i)
      done
    end
  end

(* Crash and blocked losses, matured delays, and the per-message fault
   rolls, in global destination order so the fault stream's consumption
   is a pure function of the traffic at any shard count.  Sequential by
   construction; fills [fp] with every node's surviving inbox. *)
let fault_pass t f fp =
  fp.f_len <- 0;
  for dst = 0 to t.n - 1 do
    let sh = Array.unsafe_get t.shards (dst lsr t.shard_bits) in
    let d = dst - sh.sh_base in
    let lo = Bigarray.Array1.unsafe_get sh.sh_offs d in
    let hi = Bigarray.Array1.unsafe_get sh.sh_offs (d + 1) in
    Bigarray.Array1.unsafe_set fp.f_offs dst fp.f_len;
    (* Messages whose delay expired this round re-enter ahead of fresh
       traffic, oldest first; they already passed their fault rolls when
       first delayed. *)
    let matured =
      if Array.length t.delayed = 0 || t.delayed.(dst) = [] then []
      else begin
        let due, still =
          List.partition (fun (due, _, _) -> due <= t.round) t.delayed.(dst)
        in
        t.delayed.(dst) <- still;
        List.rev_map (fun (_, src, msg) -> (src, msg)) due
      end
    in
    if hi > lo || matured <> [] then begin
      if Faults.crashed f dst then
        t.lost_crash <- t.lost_crash + (hi - lo) + List.length matured
      else if t.blocked dst then
        (* Lost per the Section 1.1 blocking rule; not a fault, not counted. *)
        ()
      else begin
        let start = fp.f_len in
        List.iter (fun (src, msg) -> push fp src (Obj.repr msg)) matured;
        for i = lo to hi - 1 do
          roll_message t f fp ~dst
            (Bigarray.Array1.unsafe_get sh.sh_srcs i)
            (Array.unsafe_get sh.sh_msgs i)
        done;
        roll_reorder t f fp ~dst start
      end
    end
  done;
  Bigarray.Array1.unsafe_set fp.f_offs t.n fp.f_len;
  (* The faulted planes hold their own refs; drop the merged planes'
     payload refs now so the round retains nothing it delivered. *)
  Array.iter (fun sh -> Array.fill sh.sh_msgs 0 sh.sh_len obj_nil) t.shards

let tick_faults t =
  (* Crash/recover transitions fire at the round boundary, before this
     round's deliveries. *)
  match t.faults with
  | None -> ()
  | Some (f, _) ->
      let transitions = Faults.tick f ~round:t.round in
      if Trace.enabled t.trace then
        List.iter
          (fun (node, kind) ->
            emit_fault t
              (match kind with `Crash -> "crash" | `Recover -> "recover")
              [ ("node", Trace.Int node) ])
          transitions

(* ---------- delivery ---------- *)

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

let deliver_and_step t f =
  tick_faults t;
  merge t;
  let r = t.round in
  (match t.faults with
  | None ->
      Array.iter
        (fun sh ->
          let offs = sh.sh_offs in
          let view = { s_srcs = sh.sh_srcs; s_msgs = sh.sh_msgs; s_lo = 0; s_hi = 0 } in
          for d = 0 to sh.sh_size - 1 do
            let me = sh.sh_base + d in
            (* A blocked node neither computes nor receives; its slice is
               lost per the blocking rule (uncounted). *)
            if not (t.blocked me) then begin
              view.s_lo <- Bigarray.Array1.unsafe_get offs d;
              view.s_hi <- Bigarray.Array1.unsafe_get offs (d + 1);
              f ~round:r ~me ~inbox:view
            end
          done;
          Array.fill sh.sh_msgs 0 sh.sh_len obj_nil)
        t.shards
  | Some (fl, fp) ->
      fault_pass t fl fp;
      let view = { s_srcs = fp.f_srcs; s_msgs = fp.f_msgs; s_lo = 0; s_hi = 0 } in
      for me = 0 to t.n - 1 do
        if not (t.blocked me) && not (Faults.crashed fl me) then begin
          view.s_lo <- Bigarray.Array1.unsafe_get fp.f_offs me;
          view.s_hi <- Bigarray.Array1.unsafe_get fp.f_offs (me + 1);
          f ~round:r ~me ~inbox:view
        end
      done;
      Array.fill fp.f_msgs 0 fp.f_len obj_nil);
  t.round <- t.round + 1;
  t.blocked <- nobody_blocked;
  t.sent_this_round <- false

(* ---------- flat struct-of-arrays round core ----------

   A send is appended to one staging plane: parallel (src, dst, msg)
   columns with a fill pointer, grown by doubling and reused across
   rounds.  Delivery runs one counting sort by destination over all n
   nodes into one merged (src, msg) plane with n + 1 offsets, so node
   [v]'s inbox is the slice [offs.(v) .. offs.(v+1)).

   The id columns are 32-bit Bigarrays, unboxed and outside the scanned
   heap; the offsets count messages, so they stay full-width.  The msg
   columns are [Obj.t array]s so one immediate dummy ([Obj.repr 0])
   serves every message type (a polymorphic ['msg] dummy would tempt the
   compiler into flat float arrays), and clearing a consumed slot is a
   plain fill, so no round retains a payload it already delivered.

   Fault rolls and compute run sequentially in ascending destination
   order: the fault stream's consumption is a pure function of the
   traffic, and compute callbacks may share state. *)

type iplane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type idplane = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let iplane len : iplane =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max len 1)

let idplane len : idplane =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max len 1)

let obj_nil : Obj.t = Obj.repr 0

type staging = {
  mutable st_srcs : idplane;
  mutable st_dsts : idplane;
  mutable st_msgs : Obj.t array;
  mutable st_len : int;
  mutable st_cap : int;
}

(* Messages grouped by destination, node [v]'s at [offs.(v) .. offs.(v+1)):
   one for the sorted arrivals and, under a fault plan, one for the
   messages that survive the fault pass. *)
type inboxes = {
  offs : iplane;
  mutable srcs : idplane;
  mutable msgs : Obj.t array;
  mutable len : int;
  mutable cap : int;
}

(* A node's inbox as a zero-allocation window over an [inboxes]; reused
   across nodes, valid only during the compute callback. *)
type 'msg slice = {
  mutable s_srcs : idplane;
  mutable s_msgs : Obj.t array;
  mutable s_lo : int;
  mutable s_hi : int;
}

type 'msg t = {
  n : int;
  staging : staging;
  merged : inboxes;
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
  faults : (Faults.t * inboxes) option;
}

let nobody_blocked _ = false

let inboxes ~n =
  { offs = iplane (n + 1); srcs = idplane 0; msgs = [||]; len = 0; cap = 0 }

let create ?(trace = Trace.null) ?faults ~n () =
  if n <= 0 then invalid_arg "Engine.create: n <= 0";
  if n > Int32.to_int Int32.max_int then invalid_arg "Engine.create: n >= 2^31";
  {
    n;
    staging =
      { st_srcs = idplane 0; st_dsts = idplane 0; st_msgs = [||]; st_len = 0; st_cap = 0 };
    merged = inboxes ~n;
    round = 0;
    blocked = nobody_blocked;
    delayed = [||];
    sent_this_round = false;
    faults =
      (match faults with
      | Some plan when Faults.features plan <> [] ->
          Some (Faults.install ~trace plan ~n, inboxes ~n)
      | _ -> None);
  }

let round t = t.round

let losses t =
  match t.faults with Some (f, _) -> Faults.losses f | None -> Faults.no_losses

let fault_plan t = Option.map (fun (f, _) -> Faults.plan f) t.faults

let is_crashed t v =
  match t.faults with Some (f, _) -> Faults.crashed f v | None -> false

let set_blocked t f =
  if t.sent_this_round then
    invalid_arg "Engine.set_blocked: called after sends in this round";
  t.blocked <- f

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg ("Engine." ^ name ^ ": node out of range")

(* A copy of the first [len] ids of [src] in a fresh plane of [cap]. *)
let grown_ids (src : idplane) len cap =
  let dst = idplane cap in
  if len > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub src 0 len) (Bigarray.Array1.sub dst 0 len);
  dst

let grown_msgs src len cap =
  let dst = Array.make cap obj_nil in
  Array.blit src 0 dst 0 len;
  dst

let grow_staging st =
  let cap = max 1024 (2 * st.st_cap) in
  st.st_srcs <- grown_ids st.st_srcs st.st_len cap;
  st.st_dsts <- grown_ids st.st_dsts st.st_len cap;
  st.st_msgs <- grown_msgs st.st_msgs st.st_len cap;
  st.st_cap <- cap

let send t ~src ~dst msg =
  check_node t src "send";
  check_node t dst "send";
  t.sent_this_round <- true;
  match t.faults with
  | Some (f, _) when Faults.crashed f src || Faults.crashed f dst ->
      (* A crashed endpoint behaves like a permanently blocked one, except the
         loss is observable in [losses]. *)
      Faults.charge_crash f 1
  | _ ->
      (* Send-time half of the blocking rule: src non-blocked in the send
         round and dst non-blocked in the send round. *)
      if not (t.blocked src) && not (t.blocked dst) then begin
        let st = t.staging in
        let len = st.st_len in
        if len = st.st_cap then grow_staging st;
        Bigarray.Array1.unsafe_set st.st_srcs len (Int32.of_int src);
        Bigarray.Array1.unsafe_set st.st_dsts len (Int32.of_int dst);
        Array.unsafe_set st.st_msgs len (Obj.repr msg);
        st.st_len <- len + 1
      end

(* ---------- counting sort ---------- *)

(* Sort the staged sends by destination into [t.merged] and empty the
   staging plane, clearing its payload refs behind us. *)
let merge t =
  let st = t.staging and m = t.merged in
  let offs = m.offs and dsts = st.st_dsts and len = st.st_len in
  Bigarray.Array1.fill offs 0;
  for i = 0 to len - 1 do
    let d = Int32.to_int (Bigarray.Array1.unsafe_get dsts i) in
    Bigarray.Array1.unsafe_set offs d (Bigarray.Array1.unsafe_get offs d + 1)
  done;
  (* Running sums: [offs.(d)] becomes the end of [d]'s run. *)
  let acc = ref 0 in
  for d = 0 to t.n - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get offs d;
    Bigarray.Array1.unsafe_set offs d !acc
  done;
  Bigarray.Array1.unsafe_set offs t.n len;
  if len > m.cap then begin
    let cap = max 1024 (max len (2 * m.cap)) in
    m.srcs <- idplane cap;
    m.msgs <- Array.make cap obj_nil;
    m.cap <- cap
  end;
  m.len <- len;
  (* Walking the sends backwards fills each run from its end, so every
     inbox is in global send order and [offs.(d)] ends at its start. *)
  let srcs = st.st_srcs and msgs = st.st_msgs in
  let m_srcs = m.srcs and m_msgs = m.msgs in
  for i = len - 1 downto 0 do
    let d = Int32.to_int (Bigarray.Array1.unsafe_get dsts i) in
    let pos = Bigarray.Array1.unsafe_get offs d - 1 in
    Bigarray.Array1.unsafe_set offs d pos;
    Bigarray.Array1.unsafe_set m_srcs pos (Bigarray.Array1.unsafe_get srcs i);
    Array.unsafe_set m_msgs pos (Array.unsafe_get msgs i)
  done;
  Array.fill msgs 0 len obj_nil;
  st.st_len <- 0

(* ---------- fault pass ---------- *)

let ensure_delayed t =
  if Array.length t.delayed = 0 then t.delayed <- Array.make t.n []

let push fp src msg =
  if fp.len = fp.cap then begin
    let cap = max 1024 (2 * fp.cap) in
    fp.srcs <- grown_ids fp.srcs fp.len cap;
    fp.msgs <- grown_msgs fp.msgs fp.len cap;
    fp.cap <- cap
  end;
  Bigarray.Array1.unsafe_set fp.srcs fp.len (Int32.of_int src);
  Array.unsafe_set fp.msgs fp.len msg;
  fp.len <- fp.len + 1

(* Apply one fresh arrival's roll, pushing what survives this round onto
   the faulted planes. *)
let roll_message t f fp ~dst src msg =
  match Faults.roll f ~round:t.round ~src ~dst () with
  | Faults.Pass -> push fp src msg
  | Faults.Duplicate ->
      push fp src msg;
      push fp src msg
  | Faults.Drop -> ()
  | Faults.Delay hold ->
      ensure_delayed t;
      t.delayed.(dst) <- (t.round + hold, src, Obj.obj msg) :: t.delayed.(dst)

(* One reorder roll over [dst]'s whole surviving inbox [lo, len). *)
let roll_reorder t f fp ~dst lo =
  match Faults.reorder f ~round:t.round ~dst (fp.len - lo) with
  | None -> ()
  | Some perm ->
      let srcs =
        Array.map (fun i -> Bigarray.Array1.unsafe_get fp.srcs (lo + i)) perm
      in
      let msgs = Array.map (fun i -> Array.unsafe_get fp.msgs (lo + i)) perm in
      for i = 0 to Array.length perm - 1 do
        Bigarray.Array1.unsafe_set fp.srcs (lo + i) srcs.(i);
        Array.unsafe_set fp.msgs (lo + i) msgs.(i)
      done

(* Crash and blocked losses, matured delays, and the per-message fault
   rolls, in ascending destination order so the fault stream's consumption
   is a pure function of the traffic.  Fills [fp] with every node's
   surviving inbox. *)
let fault_pass t f fp =
  let m = t.merged in
  fp.len <- 0;
  for dst = 0 to t.n - 1 do
    let lo = Bigarray.Array1.unsafe_get m.offs dst in
    let hi = Bigarray.Array1.unsafe_get m.offs (dst + 1) in
    Bigarray.Array1.unsafe_set fp.offs dst fp.len;
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
        Faults.charge_crash f ((hi - lo) + List.length matured)
      else if t.blocked dst then
        (* Lost per the Section 1.1 blocking rule; not a fault, not counted. *)
        ()
      else begin
        let start = fp.len in
        List.iter (fun (src, msg) -> push fp src (Obj.repr msg)) matured;
        for i = lo to hi - 1 do
          roll_message t f fp ~dst
            (Int32.to_int (Bigarray.Array1.unsafe_get m.srcs i))
            (Array.unsafe_get m.msgs i)
        done;
        roll_reorder t f fp ~dst start
      end
    end
  done;
  Bigarray.Array1.unsafe_set fp.offs t.n fp.len;
  (* The faulted planes hold their own refs; drop the merged plane's
     payload refs now so the round retains nothing it delivered. *)
  Array.fill m.msgs 0 m.len obj_nil

(* Crash/recover transitions fire at the round boundary, before this
   round's deliveries. *)
let tick_faults t =
  match t.faults with Some (f, _) -> Faults.tick f ~round:t.round | None -> ()

(* ---------- delivery ---------- *)

let slice_iter f s =
  for i = s.s_lo to s.s_hi - 1 do
    f
      ~src:(Int32.to_int (Bigarray.Array1.unsafe_get s.s_srcs i))
      (Obj.obj (Array.unsafe_get s.s_msgs i))
  done

let deliver_and_step t f =
  tick_faults t;
  merge t;
  let inb =
    match t.faults with
    | None -> t.merged
    | Some (fl, fp) ->
        fault_pass t fl fp;
        fp
  in
  let r = t.round in
  let view = { s_srcs = inb.srcs; s_msgs = inb.msgs; s_lo = 0; s_hi = 0 } in
  for me = 0 to t.n - 1 do
    (* A blocked or crashed node neither computes nor receives; its slice
       is lost (the fault pass already counted crash losses). *)
    if not (t.blocked me || is_crashed t me) then begin
      view.s_lo <- Bigarray.Array1.unsafe_get inb.offs me;
      view.s_hi <- Bigarray.Array1.unsafe_get inb.offs (me + 1);
      f ~round:r ~me ~inbox:view
    end
  done;
  Array.fill inb.msgs 0 inb.len obj_nil;
  t.round <- t.round + 1;
  t.blocked <- nobody_blocked;
  t.sent_this_round <- false

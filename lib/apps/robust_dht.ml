module Kary = Topology.Kary_hypercube

(* {!Prng.Splitmix64.mix}, restated so the hash stays unboxed: a call
   across the library boundary boxes its int64 argument and result (six
   words a request). *)
let[@inline] mix x =
  let x = Int64.(mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L) in
  let x = Int64.(mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL) in
  Int64.(logxor x (shift_right_logical x 31))

(* The data of every supernode in one table.  A key's group is
   [supernode_of_key key], a pure function of the key, so one table keyed
   by the key alone is exactly the union of per-group stores, and a
   reshuffle, which only moves servers between groups, never touches it.

   Open addressing with linear probing over a power-of-two number of
   slots, at most 3/4 full: [keys.(i)] is slot i's key and [offs.(i)] the
   arena offset of its value, or [empty].  Marking emptiness in [offs]
   keeps every int a valid key.  A value is stored as its length in
   LEB128 (seven bits a byte, low group first, the high bit set on all
   but the last byte) followed by its bytes, all in one byte arena, so an
   entry costs the GC no block of its own.  An overwrite goes in place
   when the new record is no longer than the old one; otherwise the value
   is appended, and an append that does not fit compacts the live records
   into a fresh arena of twice their size, so the arena grows with the
   live bytes, not with the number of overwrites. *)
module Store = struct
  type t = {
    mutable keys : int array;
    mutable offs : int array;
    mutable count : int;  (* occupied slots *)
    mutable arena : Bytes.t;
    mutable top : int;  (* arena bytes written *)
    mutable live : int;  (* bytes of the records [offs] points at *)
  }

  let empty = -1
  let min_slots = 16
  let min_arena = 256

  let create () =
    {
      keys = Array.make min_slots 0;
      offs = Array.make min_slots empty;
      count = 0;
      arena = Bytes.create min_arena;
      top = 0;
      live = 0;
    }

  (* The slot holding [key], or the empty slot that ends its probe. *)
  let slot t key =
    let mask = Array.length t.keys - 1 in
    let i = ref (Int64.to_int (mix (Int64.of_int key)) land mask) in
    while t.offs.(!i) <> empty && t.keys.(!i) <> key do
      i := (!i + 1) land mask
    done;
    !i

  let rec prefix_len len = if len < 0x80 then 1 else 1 + prefix_len (len lsr 7)
  let record_len len = prefix_len len + len

  let rec value_len_at arena off shift acc =
    let b = Bytes.get_uint8 arena off in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else value_len_at arena (off + 1) (shift + 7) acc

  let value_len arena off = value_len_at arena off 0 0

  (* Writes [len]'s prefix at [off]; returns the offset after it. *)
  let rec write_prefix arena off len =
    if len < 0x80 then begin
      Bytes.set_uint8 arena off len;
      off + 1
    end
    else begin
      Bytes.set_uint8 arena off (len land 0x7f lor 0x80);
      write_prefix arena (off + 1) (len lsr 7)
    end

  let write_record arena off v =
    let len = String.length v in
    Bytes.blit_string v 0 arena (write_prefix arena off len) len

  let find t key =
    let off = t.offs.(slot t key) in
    if off = empty then None
    else
      let len = value_len t.arena off in
      Some (Bytes.sub_string t.arena (off + prefix_len len) len)

  (* Copy the live records, in slot order, into a fresh arena with room
     for [need] more bytes. *)
  let compact t need =
    let arena = Bytes.create (max min_arena (2 * (t.live + need))) in
    let top = ref 0 in
    Array.iteri
      (fun i off ->
        if off <> empty then begin
          let r = record_len (value_len t.arena off) in
          Bytes.blit t.arena off arena !top r;
          t.offs.(i) <- !top;
          top := !top + r
        end)
      t.offs;
    t.arena <- arena;
    t.top <- !top

  let append t v =
    let r = record_len (String.length v) in
    if t.top + r > Bytes.length t.arena then compact t r;
    let off = t.top in
    write_record t.arena off v;
    t.top <- off + r;
    t.live <- t.live + r;
    off

  let grow t =
    let keys = t.keys and offs = t.offs in
    let slots = 2 * Array.length keys in
    t.keys <- Array.make slots 0;
    t.offs <- Array.make slots empty;
    Array.iteri
      (fun i off ->
        if off <> empty then begin
          let j = slot t keys.(i) in
          t.keys.(j) <- keys.(i);
          t.offs.(j) <- off
        end)
      offs

  let replace t key v =
    let i = slot t key in
    let off = t.offs.(i) in
    if off = empty then begin
      let i =
        if 4 * (t.count + 1) <= 3 * Array.length t.keys then i
        else begin
          grow t;
          slot t key
        end
      in
      t.keys.(i) <- key;
      t.offs.(i) <- append t v;
      t.count <- t.count + 1
    end
    else begin
      let old = record_len (value_len t.arena off) in
      let r = record_len (String.length v) in
      if r <= old then begin
        write_record t.arena off v;
        t.live <- t.live - old + r
      end
      else begin
        (* the old record is dead: keep a compaction from copying it *)
        t.offs.(i) <- empty;
        t.live <- t.live - old;
        t.offs.(i) <- append t v
      end
    end
end

type op = Read of int | Write of int * string

type op_result = { ok : bool; hops : int; value : string option }

type t = {
  rng : Prng.Stream.t;
  cube : Kary.t;
  n : int;
  mutable group_of : int array;
  mutable members : int array array;
  mutable reshuffles : int;  (* how many reshuffles ran: a view's epoch *)
  hop_results : op_result array;  (* .(h): the result of h hops, no value *)
  store : Store.t;
  digit : int array; (* digit.(x * d + i): coordinate i of supernode x *)
  stride : int array; (* stride.(i) = k^i: the step of coordinate i *)
}

type view = { blocked : bool array; occupied : Bytes.t; epoch : int }

type batch_result = {
  served : int;
  failed : int;
  max_hops : int;
  max_group_load : int;
}

(* Every supernode's coordinates, row x = x written in base k (least
   significant digit first).  Row x is row x - 1 plus one, counted up
   odometer-style in one pass, so the table costs no division. *)
let digit_table ~k ~d supernodes =
  let digit = Array.make (supernodes * d) 0 in
  for x = 1 to supernodes - 1 do
    let row = x * d in
    let carry = ref true in
    for i = 0 to d - 1 do
      let prev = digit.(row - d + i) in
      if not !carry then digit.(row + i) <- prev
      else if prev = k - 1 then digit.(row + i) <- 0
      else begin
        digit.(row + i) <- prev + 1;
        carry := false
      end
    done
  done;
  digit

let create ?(c = 1.0) ?(k = 4) ~rng ~n () =
  if n < 64 then invalid_arg "Robust_dht.create: n too small";
  if k < 2 then invalid_arg "Robust_dht.create: k < 2";
  let logn = Core.Params.log2f (float_of_int n) in
  let target = float_of_int n /. (c *. logn) in
  let rec dim d =
    if float_of_int (Kary.node_count (Kary.create ~k ~d:(d + 1))) <= target then
      dim (d + 1)
    else d
  in
  let d = max 1 (dim 1) in
  let cube = Kary.create ~k ~d in
  let supernodes = Kary.node_count cube in
  let group_of = Array.init n (fun _ -> Prng.Stream.int rng supernodes) in
  let stride = Array.make d 1 in
  for i = 1 to d - 1 do
    stride.(i) <- stride.(i - 1) * k
  done;
  {
    rng;
    cube;
    n;
    group_of;
    members = Topology.Groups.members ~groups:supernodes group_of;
    reshuffles = 0;
    hop_results = Array.init (d + 1) (fun hops -> { ok = true; hops; value = None });
    store = Store.create ();
    digit = digit_table ~k ~d supernodes;
    stride;
  }

let n t = t.n
let k t = Kary.k t.cube
let dimension t = Kary.d t.cube
let supernode_count t = Kary.node_count t.cube
let group_of t = Array.copy t.group_of
let epoch t = t.reshuffles
let cube t = t.cube

let supernode_of_key t key =
  let h = mix (Int64.of_int key) in
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1)
                  (Int64.of_int (supernode_count t)))

(* One reconfiguration of the server groups, exactly as in Section 5 but
   over the k-ary supernode cube: each group runs the rapid k-ary sampling
   primitive (Core.Rapid_kary) for its supernode and scatters its members
   (in id order) to the supernodes it sampled. *)
let reshuffle t =
  let supernodes = supernode_count t in
  let max_group =
    Array.fold_left (fun acc m -> max acc (Array.length m)) 0 t.members
  in
  let d = Kary.d t.cube in
  let c_sample =
    Float.max 2.0 ((float_of_int max_group /. float_of_int (max 1 d)) +. 1.0)
  in
  let sampling =
    Core.Rapid_kary.run ~c:c_sample ~rng:(Prng.Stream.split t.rng) t.cube
  in
  for x = 0 to supernodes - 1 do
    let pool = sampling.Core.Sampling_result.samples.(x) in
    Array.iteri
      (fun i v ->
        if i < Array.length pool then t.group_of.(v) <- pool.(i)
        else
          (* underflow shortfall: direct uniform fallback *)
          t.group_of.(v) <- Prng.Stream.int t.rng supernodes)
      t.members.(x)
  done;
  t.members <- Topology.Groups.members ~groups:supernodes t.group_of;
  t.reshuffles <- t.reshuffles + 1

(* Each group's scan stops at its first non-blocked member, so a view
   costs O(supernodes + blocked servers), at most O(n). *)
let occupancy t ~blocked =
  if Array.length blocked <> t.n then
    invalid_arg "Robust_dht.occupancy: blocked size mismatch";
  let occupied =
    Bytes.init (supernode_count t) (fun x ->
        let m = t.members.(x) in
        let len = Array.length m in
        let i = ref 0 in
        while !i < len && blocked.(m.(!i)) do
          incr i
        done;
        if !i < len then '\001' else '\000')
  in
  { blocked; occupied; epoch = t.reshuffles }

let[@inline] occupied view x = Bytes.get view.occupied x <> '\000'

(* Dimension-correction routing from supernode [src] to [dst]: repeatedly
   move to a neighboring occupied group that agrees with [dst] on one more
   coordinate, trying coordinates in ascending order.  Any correction
   order works, so the route detours around starved groups; it fails only
   when every remaining correction leads to a starved group.  Returns the
   hop count, or -1 when stuck.  Digits and strides come from the tables
   [create] built, so a hop costs no division and no allocation. *)
let route t ~view ~load ~src ~dst =
  let d = dimension t in
  let digit = t.digit and stride = t.stride in
  let dst_row = dst * d in
  let cur = ref src and hops = ref 0 in
  while !cur <> dst && !hops >= 0 do
    let row = !cur * d in
    let i = ref 0 in
    while !i < d do
      let ci = digit.(row + !i) and di = digit.(dst_row + !i) in
      let next = !cur + ((di - ci) * stride.(!i)) in
      if ci <> di && occupied view next then begin
        cur := next;
        incr hops;
        (match load with
        | Some counts -> counts.(next) <- counts.(next) + 1
        | None -> ());
        i := d + 1
      end
      else incr i
    done;
    if !i = d then hops := -1
  done;
  !hops

let group_members t x = Array.copy t.members.(x)

let peek t key = Store.find t.store key

(* Bounded rejection sampling: each draw lands on a non-blocked server with
   probability (non-blocked / n), so unless nearly every server is blocked
   the loop exits within a couple of draws and costs O(1).  Only after
   [entry_attempts] consecutive misses — survivor fraction below ~50% with
   probability 2^-30 — do we fall back to one O(n) survivor scan, which is
   also what decides the all-blocked case.  (The previous implementation
   scanned the whole blocked array on *every* request, making a sustained
   request stream quadratic in n.) *)
let entry_attempts = 30

(* The fallback: the survivor at a uniform index among the survivors, in
   server order — one draw, found by counting and then walking. *)
let survivor_entry ~rng blocked =
  let count = ref 0 in
  for v = 0 to Array.length blocked - 1 do
    if not blocked.(v) then incr count
  done;
  if !count = 0 then None
  else begin
    let skip = ref (Prng.Stream.int rng !count) and v = ref 0 in
    while !skip > 0 || blocked.(!v) do
      if not blocked.(!v) then decr skip;
      incr v
    done;
    Some !v
  end

let random_entry_with t ~rng ~blocked =
  if Array.length blocked <> t.n then
    invalid_arg "Robust_dht.random_entry: blocked size mismatch";
  let entry = ref (-1) and tries = ref 0 in
  while !entry < 0 && !tries < entry_attempts do
    let v = Prng.Stream.int rng t.n in
    if not blocked.(v) then entry := v;
    incr tries
  done;
  if !entry >= 0 then Some !entry else survivor_entry ~rng blocked

let random_entry t ~blocked = random_entry_with t ~rng:t.rng ~blocked

let failure = { ok = false; hops = 0; value = None }

let execute_from t ~view ~load ~entry op =
  let key = match op with Read key | Write (key, _) -> key in
  let dst = supernode_of_key t key in
  let src = t.group_of.(entry) in
  (match load with Some counts -> counts.(src) <- counts.(src) + 1 | None -> ());
  if not (occupied view dst) then failure
  else
    let hops = route t ~view ~load ~src ~dst in
    if hops < 0 then failure
    else
      match op with
      | Read key -> (
          match Store.find t.store key with
          | None -> t.hop_results.(hops)
          | value -> { ok = true; hops; value })
      | Write (key, v) ->
          Store.replace t.store key v;
          t.hop_results.(hops)

let execute t ~blocked op =
  if Array.length blocked <> t.n then
    invalid_arg "Robust_dht.execute: blocked size mismatch";
  match random_entry t ~blocked with
  | None -> failure
  | Some entry ->
      execute_from t ~view:(occupancy t ~blocked) ~load:None ~entry op

let execute_at t ~view ?load ~entry op =
  if view.epoch <> t.reshuffles || Array.length view.blocked <> t.n then
    invalid_arg "Robust_dht.execute_at: stale view";
  if entry < 0 || entry >= t.n then
    invalid_arg "Robust_dht.execute_at: entry out of range";
  if view.blocked.(entry) then failure
  else execute_from t ~view ~load ~entry op

let execute_batch t ~blocked ops =
  if Array.length blocked <> t.n then
    invalid_arg "Robust_dht.execute_batch: blocked size mismatch";
  let view = occupancy t ~blocked in
  let load = Array.make (supernode_count t) 0 in
  let served = ref 0 and failed = ref 0 and max_hops = ref 0 in
  List.iter
    (fun op ->
      match random_entry t ~blocked with
      | None -> incr failed
      | Some entry ->
          let r = execute_from t ~view ~load:(Some load) ~entry op in
          if r.ok then begin
            incr served;
            if r.hops > !max_hops then max_hops := r.hops
          end
          else incr failed)
    ops;
  {
    served = !served;
    failed = !failed;
    max_hops = !max_hops;
    max_group_load = Array.fold_left max 0 load;
  }

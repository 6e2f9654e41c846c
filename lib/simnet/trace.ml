type value = Int of int | Float of float | Bool of bool | String of string

type event =
  | Round of {
      round : int;
      msgs : int;
      bits : int;
      max_node_bits : int;
      max_node_msgs : int;
      blocked : int;
    }
  | Span of { name : string; rounds : int; fields : (string * value) list }
  | Adversary of { kind : string; fields : (string * value) list }
  | Note of { name : string; fields : (string * value) list }
  | Fault of { kind : string; round : int; fields : (string * value) list }
  | Request of {
      op : string;
      round : int;
      client : int;
      latency : int;
      hops : int;
      status : string;
    }
  | Progress of {
      sweep : string;
      cell : string;
      index : int;
      completed : int;
      total : int;
      wall_s : float;
      cached : bool;
    }

type format = Jsonl | Binary

type t = {
  enabled : bool;
  emit_fn : event -> unit;
  close_fn : unit -> unit;
  mutable closed : bool;
}

let null =
  { enabled = false; emit_fn = ignore; close_fn = ignore; closed = false }

let enabled t = t.enabled

let make ~emit ~close =
  { enabled = true; emit_fn = emit; close_fn = close; closed = false }

let emit t ev = if t.enabled && not t.closed then t.emit_fn ev

let close t =
  if t.enabled && not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let round_of_summary ?(blocked = 0) (s : Metrics.round_summary) =
  Round
    {
      round = s.Metrics.round;
      msgs = s.Metrics.msgs;
      bits = s.Metrics.bits;
      max_node_bits = s.Metrics.max_node_bits;
      max_node_msgs = s.Metrics.max_node_msgs;
      blocked;
    }

(* ---------- serialization ---------- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Finite floats render via the shared shortest-roundtrip repr (forced
   to contain a float marker so parse_jsonl_line decodes a Float, not an
   Int — "-0.0" must not come back as Int 0).  The previous %.12g default
   silently lost low-order bits, so the byte-identity guarantee held for
   checkpoints but not traces; now both layers share one repr. *)
let add_json_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f then add_json_string buf "nan"
      else if f = Float.infinity then add_json_string buf "inf"
      else if f = Float.neg_infinity then add_json_string buf "-inf"
      else Buffer.add_string buf (Stats.Float_text.json_repr f)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | String s -> add_json_string buf s

(* The wire pairs of an event: a fixed discriminator first, then the
   event's own fields.  Field names never collide with the fixed keys. *)
let pairs_of_event = function
  | Round r ->
      [
        ("ev", String "round");
        ("round", Int r.round);
        ("msgs", Int r.msgs);
        ("bits", Int r.bits);
        ("max_node_bits", Int r.max_node_bits);
        ("max_node_msgs", Int r.max_node_msgs);
        ("blocked", Int r.blocked);
      ]
  | Span s ->
      ("ev", String "span") :: ("name", String s.name)
      :: ("rounds", Int s.rounds) :: s.fields
  | Adversary a -> ("ev", String "adversary") :: ("kind", String a.kind) :: a.fields
  | Note n -> ("ev", String "note") :: ("name", String n.name) :: n.fields
  | Fault f ->
      ("ev", String "fault") :: ("kind", String f.kind)
      :: ("round", Int f.round) :: f.fields
  | Request r ->
      [
        ("ev", String "request");
        ("op", String r.op);
        ("round", Int r.round);
        ("client", Int r.client);
        ("latency", Int r.latency);
        ("hops", Int r.hops);
        ("status", String r.status);
      ]
  | Progress p ->
      [
        ("ev", String "progress");
        ("sweep", String p.sweep);
        ("cell", String p.cell);
        ("index", Int p.index);
        ("completed", Int p.completed);
        ("total", Int p.total);
        ("wall_s", Float p.wall_s);
        ("cached", Bool p.cached);
      ]

let jsonl_of_pairs ?float_repr pairs =
  let add_value =
    match float_repr with
    | None -> add_json_value
    | Some repr -> (
        fun buf -> function
          | Float f when Float.is_nan f -> add_json_string buf "nan"
          | Float f when f = Float.infinity -> add_json_string buf "inf"
          | Float f when f = Float.neg_infinity -> add_json_string buf "-inf"
          | Float f -> Buffer.add_string buf (repr f)
          | v -> add_json_value buf v)
  in
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    pairs;
  Buffer.add_char buf '}';
  Buffer.contents buf

let jsonl_of_event ev = jsonl_of_pairs (pairs_of_event ev)

let kind_of_event = function
  | Round _ -> "round"
  | Span _ -> "span"
  | Adversary _ -> "adversary"
  | Note _ -> "note"
  | Fault _ -> "fault"
  | Request _ -> "request"
  | Progress _ -> "progress"

(* ---------- binary sink ----------

   Fixed-width little-endian records behind a small self-describing
   header.  The design goal is not generality but exactness at scale:
   the decoder reconstructs the *same* event values the writer saw, so
   exporting a binary trace through jsonl_of_event reproduces the text
   sink's bytes verbatim.  Strings are interned into a symbol table
   (ids assigned in first-appearance order, so same-seed runs produce
   byte-identical files); hot event kinds get compact layouts with a
   wide fallback when a field overflows its width.  Layout details and
   versioning rules live in docs/observability.md. *)

let binary_magic = "OVTRACE\x00"
let binary_version = 1

(* Record tags.  Compact/wide pairs decode to the same event kind. *)
let tag_symbol = 0x00
let tag_round = 0x01
let tag_round_wide = 0x02
let tag_span = 0x03
let tag_adversary = 0x04
let tag_note = 0x05
let tag_fault = 0x06
let tag_request = 0x07
let tag_request_wide = 0x08
let tag_progress = 0x09

let binary_kind_table =
  [
    (tag_symbol, "symbol");
    (tag_round, "round");
    (tag_round_wide, "round");
    (tag_span, "span");
    (tag_adversary, "adversary");
    (tag_note, "note");
    (tag_fault, "fault");
    (tag_request, "request");
    (tag_request_wide, "request");
    (tag_progress, "progress");
  ]

let add_u8 buf v = Buffer.add_uint8 buf v
let add_u16 buf v = Buffer.add_uint16_le buf v
let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_i32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)
let fits_u8 v = v >= 0 && v < 0x100
let fits_u16 v = v >= 0 && v < 0x10000
let fits_u32 v = v >= 0 && v < 0x1_0000_0000
let fits_i32 v = v >= -0x8000_0000 && v < 0x8000_0000

(* Value-string interning rule (deterministic, mirrored by nothing: the
   reader just replays symbol-def records): intern strings of <= 64
   bytes while the u16 id space lasts, inline everything else.  Fixed
   vocabulary strings (event names, fault kinds, field keys) must
   intern; running out of id space for those is a hard error rather
   than a silent layout change. *)
let max_interned_value_len = 64

type binary_writer = {
  wbuf : Buffer.t;
  woc : out_channel;
  wsymbols : (string, int) Hashtbl.t;
  mutable wnext : int;
}

let binary_flush_threshold = 1 lsl 16

let intern w s =
  match Hashtbl.find_opt w.wsymbols s with
  | Some id -> Some id
  | None ->
      if w.wnext < 0x10000 && String.length s <= 0xffff then begin
        let id = w.wnext in
        w.wnext <- id + 1;
        Hashtbl.add w.wsymbols s id;
        add_u8 w.wbuf tag_symbol;
        add_u16 w.wbuf (String.length s);
        Buffer.add_string w.wbuf s;
        Some id
      end
      else None

let intern_exn w s =
  match intern w s with
  | Some id -> id
  | None ->
      failwith
        ("Trace: binary symbol table cannot hold name " ^ String.escaped s
       ^ " (65536 ids, 65535-byte names); use the JSONL sink")

let sym_of w s = Hashtbl.find_opt w.wsymbols s

let sym_get w s =
  match sym_of w s with Some id -> id | None -> assert false (* interned *)

(* Interning appends whole symbol-def records to the stream, so it must
   happen *before* the event record's first byte: phase 1 interns every
   name the event needs, phase 2 appends the record using lookups only. *)
let intern_str w s = if String.length s <= max_interned_value_len then ignore (intern w s)

let intern_fields w fields =
  List.iter
    (fun (k, v) ->
      ignore (intern_exn w k);
      match v with String s -> intern_str w s | _ -> ())
    fields

(* value := u8 tag, payload.  0 i32 | 1 i64 | 2 f64 bits | 3 bool u8 |
   4 symbol u16 | 5 inline u32 length + bytes. *)
let write_value w = function
  | Int i ->
      if fits_i32 i then begin
        add_u8 w.wbuf 0;
        add_i32 w.wbuf i
      end
      else begin
        add_u8 w.wbuf 1;
        add_i64 w.wbuf i
      end
  | Float f ->
      add_u8 w.wbuf 2;
      add_f64 w.wbuf f
  | Bool b ->
      add_u8 w.wbuf 3;
      add_u8 w.wbuf (if b then 1 else 0)
  | String s -> (
      match sym_of w s with
      | Some id ->
          add_u8 w.wbuf 4;
          add_u16 w.wbuf id
      | None ->
          add_u8 w.wbuf 5;
          add_u32 w.wbuf (String.length s);
          Buffer.add_string w.wbuf s)

let write_str w s = write_value w (String s)

let write_fields w fields =
  let nf = List.length fields in
  if nf > 0xff then failwith "Trace: too many fields for a binary record";
  add_u8 w.wbuf nf;
  List.iter
    (fun (k, v) ->
      add_u16 w.wbuf (sym_get w k);
      write_value w v)
    fields

let binary_emit w ev =
  (* phase 1: symbol definitions *)
  (match ev with
  | Round _ -> ()
  | Span s ->
      ignore (intern_exn w s.name);
      intern_fields w s.fields
  | Adversary a ->
      ignore (intern_exn w a.kind);
      intern_fields w a.fields
  | Note n ->
      ignore (intern_exn w n.name);
      intern_fields w n.fields
  | Fault f ->
      ignore (intern_exn w f.kind);
      intern_fields w f.fields
  | Request r ->
      intern_str w r.op;
      intern_str w r.status
  | Progress p ->
      intern_str w p.sweep;
      intern_str w p.cell);
  (* phase 2: the event record *)
  (match ev with
  | Round r ->
      if
        fits_u32 r.round && fits_u32 r.msgs && r.bits >= 0
        && fits_u32 r.max_node_bits && fits_u16 r.max_node_msgs
        && fits_u32 r.blocked
      then begin
        add_u8 w.wbuf tag_round;
        add_u32 w.wbuf r.round;
        add_u32 w.wbuf r.msgs;
        add_i64 w.wbuf r.bits;
        add_u32 w.wbuf r.max_node_bits;
        add_u16 w.wbuf r.max_node_msgs;
        add_u32 w.wbuf r.blocked
      end
      else begin
        add_u8 w.wbuf tag_round_wide;
        add_i64 w.wbuf r.round;
        add_i64 w.wbuf r.msgs;
        add_i64 w.wbuf r.bits;
        add_i64 w.wbuf r.max_node_bits;
        add_i64 w.wbuf r.max_node_msgs;
        add_i64 w.wbuf r.blocked
      end
  | Span s ->
      add_u8 w.wbuf tag_span;
      add_u16 w.wbuf (sym_get w s.name);
      add_i64 w.wbuf s.rounds;
      write_fields w s.fields
  | Adversary a ->
      add_u8 w.wbuf tag_adversary;
      add_u16 w.wbuf (sym_get w a.kind);
      write_fields w a.fields
  | Note n ->
      add_u8 w.wbuf tag_note;
      add_u16 w.wbuf (sym_get w n.name);
      write_fields w n.fields
  | Fault f ->
      if not (fits_u32 f.round) then
        failwith "Trace: fault round exceeds the binary u32 width";
      add_u8 w.wbuf tag_fault;
      add_u16 w.wbuf (sym_get w f.kind);
      add_u32 w.wbuf f.round;
      write_fields w f.fields
  | Request r -> (
      match (sym_of w r.op, sym_of w r.status) with
      | Some op_id, Some status_id
        when fits_u8 op_id && fits_u8 status_id && fits_u32 r.round
             && fits_u32 r.client && fits_u16 r.latency && fits_u16 r.hops ->
          add_u8 w.wbuf tag_request;
          add_u8 w.wbuf op_id;
          add_u32 w.wbuf r.round;
          add_u32 w.wbuf r.client;
          add_u16 w.wbuf r.latency;
          add_u16 w.wbuf r.hops;
          add_u8 w.wbuf status_id
      | _ ->
          add_u8 w.wbuf tag_request_wide;
          write_str w r.op;
          add_i64 w.wbuf r.round;
          add_i64 w.wbuf r.client;
          add_i64 w.wbuf r.latency;
          add_i64 w.wbuf r.hops;
          write_str w r.status)
  | Progress p ->
      add_u8 w.wbuf tag_progress;
      write_str w p.sweep;
      write_str w p.cell;
      add_i64 w.wbuf p.index;
      add_i64 w.wbuf p.completed;
      add_i64 w.wbuf p.total;
      add_f64 w.wbuf p.wall_s;
      add_u8 w.wbuf (if p.cached then 1 else 0));
  if Buffer.length w.wbuf >= binary_flush_threshold then begin
    Buffer.output_buffer w.woc w.wbuf;
    Buffer.clear w.wbuf
  end

let binary_writer_of_channel oc =
  set_binary_mode_out oc true;
  let w =
    {
      wbuf = Buffer.create binary_flush_threshold;
      woc = oc;
      wsymbols = Hashtbl.create 64;
      wnext = 0;
    }
  in
  Buffer.add_string w.wbuf binary_magic;
  add_u16 w.wbuf binary_version;
  add_u8 w.wbuf (List.length binary_kind_table);
  List.iter
    (fun (tag, name) ->
      add_u8 w.wbuf tag;
      add_u8 w.wbuf (String.length name);
      Buffer.add_string w.wbuf name)
    binary_kind_table;
  w

(* ---------- binary reader ---------- *)

let read_exact ic len =
  let b = Bytes.create len in
  really_input ic b 0 len;
  b

let r_u8 ic = Char.code (input_char ic)
let r_u16 ic = Bytes.get_uint16_le (read_exact ic 2) 0
let r_i32 ic = Int32.to_int (Bytes.get_int32_le (read_exact ic 4) 0)
let r_u32 ic = r_i32 ic land 0xffff_ffff
let r_i64 ic = Int64.to_int (Bytes.get_int64_le (read_exact ic 8) 0)
let r_f64 ic = Int64.float_of_bits (Bytes.get_int64_le (read_exact ic 8) 0)
let r_str ic len = Bytes.to_string (read_exact ic len)

type binary_reader = {
  ric : in_channel;
  mutable rsyms : string array;
  mutable rcount : int;
}

let r_add_sym r s =
  if r.rcount >= Array.length r.rsyms then begin
    let ns = Array.make (2 * Array.length r.rsyms) "" in
    Array.blit r.rsyms 0 ns 0 r.rcount;
    r.rsyms <- ns
  end;
  r.rsyms.(r.rcount) <- s;
  r.rcount <- r.rcount + 1

let r_sym r id =
  if id < r.rcount then r.rsyms.(id)
  else
    failwith
      (Printf.sprintf "Trace: corrupt binary trace (symbol %d of %d)" id
         r.rcount)

let r_value r =
  match r_u8 r.ric with
  | 0 -> Int (r_i32 r.ric)
  | 1 -> Int (r_i64 r.ric)
  | 2 -> Float (r_f64 r.ric)
  | 3 -> Bool (r_u8 r.ric <> 0)
  | 4 -> String (r_sym r (r_u16 r.ric))
  | 5 ->
      let len = r_u32 r.ric in
      String (r_str r.ric len)
  | t -> failwith (Printf.sprintf "Trace: corrupt binary trace (value tag %d)" t)

let r_strval r =
  match r_value r with
  | String s -> s
  | _ -> failwith "Trace: corrupt binary trace (expected a string value)"

let r_fields r =
  let nf = r_u8 r.ric in
  let rec go i acc =
    if i = nf then List.rev acc
    else
      let k = r_sym r (r_u16 r.ric) in
      let v = r_value r in
      go (i + 1) ((k, v) :: acc)
  in
  go 0 []

let fold_binary_channel ic ~init ~f =
  set_binary_mode_in ic true;
  (try
     if r_str ic (String.length binary_magic) <> binary_magic then
       failwith "Trace: not a binary trace (bad magic)"
   with End_of_file -> failwith "Trace: not a binary trace (short header)");
  let version = r_u16 ic in
  if version <> binary_version then
    failwith
      (Printf.sprintf "Trace: unsupported binary trace version %d (expected %d)"
         version binary_version);
  let nkinds = r_u8 ic in
  for _ = 1 to nkinds do
    let _tag = r_u8 ic in
    let len = r_u8 ic in
    ignore (r_str ic len)
  done;
  let r = { ric = ic; rsyms = Array.make 64 ""; rcount = 0 } in
  let decode tag =
    if tag = tag_symbol then begin
      let len = r_u16 ic in
      r_add_sym r (r_str ic len);
      None
    end
    else if tag = tag_round then begin
      let round = r_u32 ic in
      let msgs = r_u32 ic in
      let bits = r_i64 ic in
      let max_node_bits = r_u32 ic in
      let max_node_msgs = r_u16 ic in
      let blocked = r_u32 ic in
      Some (Round { round; msgs; bits; max_node_bits; max_node_msgs; blocked })
    end
    else if tag = tag_round_wide then begin
      let round = r_i64 ic in
      let msgs = r_i64 ic in
      let bits = r_i64 ic in
      let max_node_bits = r_i64 ic in
      let max_node_msgs = r_i64 ic in
      let blocked = r_i64 ic in
      Some (Round { round; msgs; bits; max_node_bits; max_node_msgs; blocked })
    end
    else if tag = tag_span then begin
      let name = r_sym r (r_u16 ic) in
      let rounds = r_i64 ic in
      let fields = r_fields r in
      Some (Span { name; rounds; fields })
    end
    else if tag = tag_adversary then begin
      let kind = r_sym r (r_u16 ic) in
      let fields = r_fields r in
      Some (Adversary { kind; fields })
    end
    else if tag = tag_note then begin
      let name = r_sym r (r_u16 ic) in
      let fields = r_fields r in
      Some (Note { name; fields })
    end
    else if tag = tag_fault then begin
      let kind = r_sym r (r_u16 ic) in
      let round = r_u32 ic in
      let fields = r_fields r in
      Some (Fault { kind; round; fields })
    end
    else if tag = tag_request then begin
      let op = r_sym r (r_u8 ic) in
      let round = r_u32 ic in
      let client = r_u32 ic in
      let latency = r_u16 ic in
      let hops = r_u16 ic in
      let status = r_sym r (r_u8 ic) in
      Some (Request { op; round; client; latency; hops; status })
    end
    else if tag = tag_request_wide then begin
      let op = r_strval r in
      let round = r_i64 ic in
      let client = r_i64 ic in
      let latency = r_i64 ic in
      let hops = r_i64 ic in
      let status = r_strval r in
      Some (Request { op; round; client; latency; hops; status })
    end
    else if tag = tag_progress then begin
      let sweep = r_strval r in
      let cell = r_strval r in
      let index = r_i64 ic in
      let completed = r_i64 ic in
      let total = r_i64 ic in
      let wall_s = r_f64 ic in
      let cached = r_u8 ic <> 0 in
      Some (Progress { sweep; cell; index; completed; total; wall_s; cached })
    end
    else
      failwith
        (Printf.sprintf "Trace: corrupt binary trace (unknown record tag %d)"
           tag)
  in
  let rec loop acc =
    match input_char ic with
    | exception End_of_file -> acc
    | c -> (
        let decoded =
          try decode (Char.code c)
          with End_of_file ->
            failwith "Trace: corrupt binary trace (truncated record)"
        in
        match decoded with None -> loop acc | Some ev -> loop (f acc ev))
  in
  loop init

let fold_binary_file path ~init ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> fold_binary_channel ic ~init ~f)

let read_binary_file path =
  List.rev (fold_binary_file path ~init:[] ~f:(fun acc ev -> ev :: acc))

let is_binary_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match r_str ic (String.length binary_magic) with
          | magic -> magic = binary_magic
          | exception End_of_file -> false)

(* ---------- sinks ---------- *)

let of_channel ?(format = Jsonl) oc =
  match format with
  | Binary ->
      let w = binary_writer_of_channel oc in
      make
        ~emit:(fun ev -> binary_emit w ev)
        ~close:(fun () ->
          Buffer.output_buffer oc w.wbuf;
          Buffer.clear w.wbuf;
          flush oc)
  | Jsonl ->
      make
        ~emit:(fun ev ->
          output_string oc (jsonl_of_event ev);
          output_char oc '\n')
        ~close:(fun () -> flush oc)

let open_file ?format path =
  let format =
    match format with
    | Some f -> f
    | None ->
        if Filename.check_suffix path ".bin" then Binary
        else Jsonl
  in
  let oc = open_out_bin path in
  let inner = of_channel ~format oc in
  make ~emit:inner.emit_fn ~close:(fun () ->
      inner.close_fn ();
      close_out oc)

(* ---------- parsing (flat objects only) ---------- *)

exception Bad

let parse_jsonl_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      advance ()
    done
  in
  let expect c = if peek () <> c then raise Bad else advance () in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 >= n then raise Bad;
              let code = int_of_string ("0x" ^ String.sub line (!pos + 1) 4) in
              pos := !pos + 4;
              if code < 256 then Buffer.add_char buf (Char.chr code)
              else raise Bad
          | _ -> raise Bad);
          advance ();
          go ())
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_value () =
    match peek () with
    | '"' -> String (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else raise Bad
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else raise Bad
    | _ ->
        let start = !pos in
        let is_num c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !pos < n && is_num line.[!pos] do
          advance ()
        done;
        if !pos = start then raise Bad;
        let tok = String.sub line start (!pos - start) in
        if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> raise Bad
        else (
          match int_of_string_opt tok with
          | Some i -> Int i
          | None -> raise Bad)
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    if peek () = '}' then Some []
    else begin
      let out = ref [] in
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_value () in
        out := (k, v) :: !out;
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> raise Bad
      in
      members ();
      skip_ws ();
      if !pos <> n then raise Bad;
      Some (List.rev !out)
    end
  with Bad | Invalid_argument _ | Failure _ -> None

(** Structured tracing for simulation runs.

    A trace is a stream of typed events — round boundaries with their
    {!Metrics.round_summary}, protocol-phase spans, and adversary actions —
    written to a pluggable sink (null, JSONL file, binary file, or a custom
    callback).  Drivers thread an optional trace through
    {!Engine.create} and the protocol entry points; when the trace is
    {!null} (the default everywhere) instrumentation reduces to one boolean
    check per emission site, so runs without tracing pay nothing.

    Events are deterministic functions of the simulation state: no wall
    clocks, no pids.  Two runs with the same seed produce byte-identical
    JSONL traces.  The one exception is the {!Progress} event of the
    sweep engine, which exists to report wall-clock pacing and says so in
    its documentation.  The event schema is documented in
    [docs/observability.md]. *)

type value = Int of int | Float of float | Bool of bool | String of string

type event =
  | Round of {
      round : int;  (** round index, starting at 0 *)
      msgs : int;  (** messages delivered this round *)
      bits : int;  (** bits sent + received this round, summed over nodes *)
      max_node_bits : int;
      max_node_msgs : int;
      blocked : int;  (** size of the round's blocked set *)
    }  (** one per simulated round, emitted at the round boundary *)
  | Span of { name : string; rounds : int; fields : (string * value) list }
      (** a protocol phase covering [rounds] communication rounds, e.g.
          ["reconfig/sample"] or ["sampling/serve"] *)
  | Adversary of { kind : string; fields : (string * value) list }
      (** an adversary action, e.g. a churn plan or a DoS blocked set *)
  | Note of { name : string; fields : (string * value) list }
      (** free-form annotation (run headers, epoch outcomes, ...) *)
  | Fault of { kind : string; round : int; fields : (string * value) list }
      (** one injected fault fired ({!Faults}): kind is ["drop"],
          ["duplicate"], ["delay"], ["reorder"], ["crash"] or ["recover"];
          fields carry the affected endpoints *)
  | Request of {
      op : string;  (** request class: ["read"], ["write"] or ["publish"] *)
      round : int;  (** round the request left the system (done or given up) *)
      client : int;  (** issuing workload client *)
      latency : int;
          (** rounds from arrival to completion (for ["timeout"]/["failed"],
              rounds spent before giving up) *)
      hops : int;  (** routing hops of the serving attempt (0 if unserved) *)
      status : string;  (** ["ok"], ["timeout"] or ["failed"] *)
    }
      (** end-to-end outcome of one workload request ({!Workload} driver);
          emitted once per request, at its completion or abandonment *)
  | Progress of {
      sweep : string;  (** sweep name *)
      cell : string;  (** stable cell id, e.g. ["drop=0.05;retry=3"] *)
      index : int;  (** cell position in expansion order *)
      completed : int;  (** cells finished so far, this one included *)
      total : int;  (** cells in the sweep *)
      wall_s : float;  (** wall-clock seconds this cell took (0 if cached) *)
      cached : bool;  (** true if replayed from a checkpoint, not re-run *)
    }
      (** one sweep cell finished ({!Sweep} engine).  The only event kind
          carrying wall-clock time: progress streams exist to make long
          sweeps observable and are exempt from the byte-identical-trace
          guarantee above (the checkpoint artifact, not the progress
          stream, is the deterministic record of a sweep). *)

type format = Jsonl | Binary

type t

val null : t
(** Swallows every event; [enabled null = false]. *)

val enabled : t -> bool
(** [false] only for {!null}.  Emission sites use this to skip building
    event values when nobody is listening. *)

val make : emit:(event -> unit) -> close:(unit -> unit) -> t
(** Custom sink; [emit] must be safe to call until [close]. *)

val of_channel : ?format:format -> out_channel -> t
(** Sink writing to the channel ([format] defaults to [Jsonl]).  [Jsonl]
    writes one line per event; [Binary] writes the compact
    record stream described below (header eagerly, records through a
    64 KiB buffer).  {!close} flushes but does not close the channel. *)

val open_file : ?format:format -> string -> t
(** Sink writing to a fresh file (truncated).  Without [format], a path
    ending in [.bin] selects [Binary], anything else [Jsonl].  {!close} flushes and closes the
    file. *)

val emit : t -> event -> unit
(** No-op on {!null} and after {!close}. *)

val close : t -> unit

val round_of_summary : ?blocked:int -> Metrics.round_summary -> event
(** Convenience: the [Round] event for a metrics summary ([blocked]
    defaults to 0). *)

val jsonl_of_event : event -> string
(** One-line JSON object, no trailing newline. *)

val jsonl_of_pairs :
  ?float_repr:(float -> string) -> (string * value) list -> string
(** One-line flat JSON object from explicit key/value pairs — the writer
    {!jsonl_of_event} is built on, exposed for sibling JSONL formats
    (sweep checkpoint records) that must stay parseable by
    {!parse_jsonl_line}.  Finite floats default to the lossless
    shortest-roundtrip rendering of {!Stats.Float_text.json_repr}, so a
    [Float] survives write → {!parse_jsonl_line} bit-for-bit (negative
    zero included); [float_repr] overrides that rendering and is only
    consulted for finite floats (nan and infinities keep their string
    encoding). *)

val kind_of_event : event -> string
(** The wire discriminator of the event: ["round"], ["span"],
    ["adversary"], ["note"], ["fault"], ["request"] or ["progress"]. *)

val parse_jsonl_line : string -> (string * value) list option
(** Minimal parser for the flat JSON objects this module writes: returns
    the key/value pairs in order, or [None] if the line is not a flat JSON
    object of strings, numbers and booleans.  Intended for tests and the
    [trace_check] validation tool, not as a general JSON parser. *)

(** {1 Binary traces}

    The [Binary] format stores the same events as JSONL in fixed-width
    little-endian records: a header (magic ["OVTRACE\x00"], u16 version,
    a tag → kind-name table), interleaved symbol-definition records
    (names interned in first-appearance order) and per-kind event
    records with compact layouts plus wide fallbacks.  Decoding then
    re-encoding through {!jsonl_of_event} reproduces the JSONL sink's
    bytes exactly — [trace_check --export-jsonl] relies on this.  The
    full record layout and the versioning rules are documented in
    [docs/observability.md]. *)

val binary_magic : string
(** First 8 bytes of every binary trace file. *)

val binary_version : int

val is_binary_file : string -> bool
(** [true] when the file starts with {!binary_magic} ([false] on short
    or unreadable files). *)

val fold_binary_file : string -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Decode a binary trace file, folding over its events in order.
    Raises [Failure] with a descriptive message on a bad magic,
    unsupported version, or truncated/corrupt record. *)

val read_binary_file : string -> event list
(** All events of a binary trace file, in emission order.  Same failure
    behavior as {!fold_binary_file}; prefer the fold for large files. *)

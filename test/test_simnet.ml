(* Tests for the synchronous message-passing simulator, in particular the
   paper's blocking semantics (Section 1.1): a message from v to w sent in
   round i is processed iff v is non-blocked in round i and w is non-blocked
   in rounds i and i+1. *)

(* ---------- Msg_size ---------- *)

let test_id_bits () =
  Alcotest.(check int) "2 nodes" 1 (Simnet.Msg_size.id_bits 2);
  Alcotest.(check int) "3 nodes" 2 (Simnet.Msg_size.id_bits 3);
  Alcotest.(check int) "1024 nodes" 10 (Simnet.Msg_size.id_bits 1024);
  Alcotest.(check int) "1025 nodes" 11 (Simnet.Msg_size.id_bits 1025)

let test_ids_msg () =
  Alcotest.(check int) "header only" Simnet.Msg_size.header_bits
    (Simnet.Msg_size.ids_msg ~id_bits:10 ~count:0);
  Alcotest.(check int) "three ids" (Simnet.Msg_size.header_bits + 30)
    (Simnet.Msg_size.ids_msg ~id_bits:10 ~count:3)

(* ---------- Metrics ---------- *)

let test_metrics_rounds () =
  let m = Simnet.Metrics.create ~n:3 in
  Simnet.Metrics.on_send m ~node:0 ~bits:10;
  Simnet.Metrics.on_recv m ~node:1 ~bits:10;
  Simnet.Metrics.on_send m ~node:1 ~bits:5;
  Simnet.Metrics.on_recv m ~node:2 ~bits:5;
  let s = Simnet.Metrics.finish_round m in
  Alcotest.(check int) "round index" 0 s.Simnet.Metrics.round;
  Alcotest.(check int) "msgs delivered" 2 s.Simnet.Metrics.msgs;
  Alcotest.(check int) "total bits" 30 s.Simnet.Metrics.bits;
  (* node 1 sent 5 and received 10 *)
  Alcotest.(check int) "max node bits" 15 s.Simnet.Metrics.max_node_bits;
  (* next round: counters reset *)
  let s2 = Simnet.Metrics.finish_round m in
  Alcotest.(check int) "reset" 0 s2.Simnet.Metrics.bits;
  Alcotest.(check int) "totals accumulate" 30 (Simnet.Metrics.total_bits m);
  Alcotest.(check int) "rounds" 2 (Simnet.Metrics.rounds m);
  Alcotest.(check (list int)) "summaries number the rounds" [ 0; 1 ]
    (List.map (fun r -> r.Simnet.Metrics.round) [ s; s2 ])

let test_metrics_max_ever () =
  let m = Simnet.Metrics.create ~n:2 in
  Simnet.Metrics.on_send m ~node:0 ~bits:100;
  ignore (Simnet.Metrics.finish_round m);
  Simnet.Metrics.on_send m ~node:0 ~bits:7;
  ignore (Simnet.Metrics.finish_round m);
  Alcotest.(check int) "max ever" 100 (Simnet.Metrics.max_node_bits_ever m)

(* ---------- Engine: plain delivery ---------- *)

let test_engine_delivery_next_round () =
  let eng = Simnet.Engine.create ~n:2 () in
  let got = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 0 then Simnet.Engine.send eng ~src:0 ~dst:1 "hello";
      if inbox <> [] then got := inbox @ !got);
  Alcotest.(check (list (pair int string))) "nothing in round 0" [] !got;
  Testutil.step eng (fun ~round:_ ~me:_ ~inbox ->
      got := inbox @ !got);
  Alcotest.(check (list (pair int string))) "delivered in round 1"
    [ (0, "hello") ] !got;
  Alcotest.(check int) "round advanced" 2 (Simnet.Engine.round eng)

let test_engine_arrival_order () =
  let eng = Simnet.Engine.create ~n:3 () in
  Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
      if me = 0 then begin
        Simnet.Engine.send eng ~src:0 ~dst:2 "a";
        Simnet.Engine.send eng ~src:0 ~dst:2 "b"
      end;
      if me = 1 then Simnet.Engine.send eng ~src:1 ~dst:2 "c");
  let got = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 2 then got := inbox);
  Alcotest.(check int) "three messages" 3 (List.length !got);
  (* messages from node 0 keep their send order *)
  let from0 = List.filter (fun (s, _) -> s = 0) !got in
  Alcotest.(check (list (pair int string))) "fifo per sender"
    [ (0, "a"); (0, "b") ] from0

(* ---------- Engine: blocking semantics ---------- *)

let run_blocking_scenario ~sender_blocked_at_send ~recv_blocked_at_send
    ~recv_blocked_at_delivery =
  let eng = Simnet.Engine.create ~n:2 () in
  Simnet.Engine.set_blocked eng (fun v ->
      (v = 0 && sender_blocked_at_send) || (v = 1 && recv_blocked_at_send));
  Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
      if me = 0 then Simnet.Engine.send eng ~src:0 ~dst:1 "m");
  Simnet.Engine.set_blocked eng (fun v -> v = 1 && recv_blocked_at_delivery);
  let got = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 1 then got := inbox);
  !got

let test_blocking_none () =
  Alcotest.(check int) "clean delivery" 1
    (List.length
       (run_blocking_scenario ~sender_blocked_at_send:false
          ~recv_blocked_at_send:false ~recv_blocked_at_delivery:false))

let test_blocking_sender_at_send () =
  Alcotest.(check int) "sender blocked in round i" 0
    (List.length
       (run_blocking_scenario ~sender_blocked_at_send:true
          ~recv_blocked_at_send:false ~recv_blocked_at_delivery:false))

let test_blocking_receiver_at_send () =
  Alcotest.(check int) "receiver blocked in round i" 0
    (List.length
       (run_blocking_scenario ~sender_blocked_at_send:false
          ~recv_blocked_at_send:true ~recv_blocked_at_delivery:false))

let test_blocking_receiver_at_delivery () =
  Alcotest.(check int) "receiver blocked in round i+1" 0
    (List.length
       (run_blocking_scenario ~sender_blocked_at_send:false
          ~recv_blocked_at_send:false ~recv_blocked_at_delivery:true))

let test_send_from_blocked_dropped () =
  let eng = Simnet.Engine.create ~n:2 () in
  Simnet.Engine.set_blocked eng (fun v -> v = 0);
  (* the engine's send-time check drops this immediately *)
  Simnet.Engine.send eng ~src:0 ~dst:1 "m";
  let got = ref [ (9, "sentinel") ] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 1 then got := inbox);
  Alcotest.(check (list (pair int string))) "dropped at send time" [] !got

let test_blocking_resets_each_round () =
  let eng = Simnet.Engine.create ~n:2 () in
  Simnet.Engine.set_blocked eng (fun _ -> true);
  Testutil.step eng (fun ~round:_ ~me:_ ~inbox:_ ->
      Alcotest.fail "blocked nodes must not compute");
  (* next round: nobody blocked by default again *)
  let ran = ref 0 in
  Testutil.step eng (fun ~round:_ ~me:_ ~inbox:_ -> incr ran);
  Alcotest.(check int) "all nodes compute after reset" 2 !ran

let test_blocked_node_does_not_compute () =
  let eng = Simnet.Engine.create ~n:3 () in
  Simnet.Engine.set_blocked eng (fun v -> v = 1);
  let ran = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
      ran := me :: !ran);
  Alcotest.(check (list int)) "only 0 and 2 compute" [ 2; 0 ] !ran

let test_set_blocked_after_send_raises () =
  let eng = Simnet.Engine.create ~n:2 () in
  Simnet.Engine.send eng ~src:0 ~dst:1 "m";
  Alcotest.check_raises "set_blocked after send"
    (Invalid_argument "Engine.set_blocked: called after sends in this round")
    (fun () -> Simnet.Engine.set_blocked eng (fun _ -> false));
  (* after the round boundary the guard resets *)
  Testutil.step eng (fun ~round:_ ~me:_ ~inbox:_ -> ());
  Simnet.Engine.set_blocked eng (fun _ -> false)

(* ---------- Trace ---------- *)

let value_testable =
  let pp fmt = function
    | Simnet.Trace.Int i -> Format.fprintf fmt "Int %d" i
    | Simnet.Trace.Float f -> Format.fprintf fmt "Float %g" f
    | Simnet.Trace.Bool b -> Format.fprintf fmt "Bool %b" b
    | Simnet.Trace.String s -> Format.fprintf fmt "String %S" s
  in
  Alcotest.testable pp ( = )

let check_field fields key expected =
  Alcotest.(check (option value_testable)) key (Some expected)
    (List.assoc_opt key fields)

let test_trace_jsonl_engine_roundtrip () =
  (* End-to-end: an engine-backed group simulation with a JSONL file sink
     emits exactly one well-formed round record per network round, and
     parsing them back recovers the round indices and blocked-set sizes. *)
  let path = Filename.temp_file "simnet_trace" ".jsonl" in
  let trace = Simnet.Trace.open_file path in
  let n = 3 in
  let gs =
    Core.Group_sim.create ~trace ~rng:(Testutil.rng ()) ~n
      ~group_of:(Array.make n 0)
      {
        Core.Group_sim.init = (fun ~supernode:_ ~rng:_ -> ());
        step = (fun ~supernode:_ ~step_index:_ () ~inbox:_ ~rng:_ -> ((), []));
        steps = 3;
        state_bits = (fun () -> 8);
        msg_bits = (fun () -> 8);
      }
  in
  let rounds = 5 in
  for r = 0 to rounds - 1 do
    Core.Group_sim.run_round gs ~blocked:(Array.init n (fun v -> r = 2 && v = 1))
  done;
  Simnet.Trace.close trace;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines =
    List.filter
      (fun line -> Testutil.contains line {|"ev":"round"|})
      (List.rev !lines)
  in
  Alcotest.(check int) "one line per round" rounds (List.length lines);
  List.iteri
    (fun i line ->
      match Simnet.Trace.parse_jsonl_line line with
      | None -> Alcotest.failf "unparseable line %d: %s" i line
      | Some fields ->
          check_field fields "ev" (Simnet.Trace.String "round");
          check_field fields "round" (Simnet.Trace.Int i);
          check_field fields "blocked"
            (Simnet.Trace.Int (if i = 2 then 1 else 0)))
    lines

let test_trace_event_serialization_roundtrip () =
  (* jsonl_of_event output must parse back, including escaped strings. *)
  let check_roundtrip ev expected =
    let line = Simnet.Trace.jsonl_of_event ev in
    match Simnet.Trace.parse_jsonl_line line with
    | None -> Alcotest.failf "unparseable: %s" line
    | Some fields -> List.iter (fun (k, v) -> check_field fields k v) expected
  in
  check_roundtrip
    (Simnet.Trace.Span
       {
         name = "reconfig/sample";
         rounds = 3;
         fields =
           [
             ("labels", Simnet.Trace.Int 42);
             ("note", Simnet.Trace.String "a\"b\\c\nd");
             ("ok", Simnet.Trace.Bool true);
             ("ratio", Simnet.Trace.Float 0.25);
           ];
       })
    [
      ("ev", Simnet.Trace.String "span");
      ("name", Simnet.Trace.String "reconfig/sample");
      ("rounds", Simnet.Trace.Int 3);
      ("labels", Simnet.Trace.Int 42);
      ("note", Simnet.Trace.String "a\"b\\c\nd");
      ("ok", Simnet.Trace.Bool true);
      ("ratio", Simnet.Trace.Float 0.25);
    ];
  check_roundtrip
    (Simnet.Trace.Adversary
       { kind = "dos"; fields = [ ("blocked", Simnet.Trace.Int 17) ] })
    [
      ("ev", Simnet.Trace.String "adversary");
      ("kind", Simnet.Trace.String "dos");
      ("blocked", Simnet.Trace.Int 17);
    ];
  check_roundtrip
    (Simnet.Trace.Request
       {
         op = "publish";
         round = 12;
         client = 5;
         latency = 9;
         hops = 6;
         status = "ok";
       })
    [
      ("ev", Simnet.Trace.String "request");
      ("op", Simnet.Trace.String "publish");
      ("round", Simnet.Trace.Int 12);
      ("client", Simnet.Trace.Int 5);
      ("latency", Simnet.Trace.Int 9);
      ("hops", Simnet.Trace.Int 6);
      ("status", Simnet.Trace.String "ok");
    ]

let test_trace_null_is_disabled () =
  Alcotest.(check bool) "null disabled" false
    (Simnet.Trace.enabled Simnet.Trace.null);
  (* emitting into the null trace is a no-op, not an error *)
  Simnet.Trace.emit Simnet.Trace.null
    (Simnet.Trace.Note { name = "x"; fields = [] });
  Simnet.Trace.close Simnet.Trace.null

(* ---------- binary traces ---------- *)

(* Structural comparison that treats nan = nan (events carrying nan
   floats must still round-trip; (=) would report them unequal). *)
let events_equal a b = compare a b = 0

let binary_roundtrip events =
  let path = Filename.temp_file "simnet_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let trace = Simnet.Trace.open_file path in
      List.iter (Simnet.Trace.emit trace) events;
      Simnet.Trace.close trace;
      Simnet.Trace.read_binary_file path)

let exhaustive_events =
  Simnet.Trace.
    [
      (* compact layouts *)
      Round
        {
          round = 0;
          msgs = 12;
          bits = 4096;
          max_node_bits = 64;
          max_node_msgs = 3;
          blocked = 0;
        };
      Request
        { op = "read"; round = 1; client = 7; latency = 3; hops = 2; status = "ok" };
      (* wide fallbacks: values past the compact widths *)
      Round
        {
          round = max_int;
          msgs = -1;
          bits = min_int;
          max_node_bits = 1 lsl 40;
          max_node_msgs = 1 lsl 20;
          blocked = 0;
        };
      Request
        {
          op = String.make 100 'x';
          (* > 64 bytes: inlined, not interned *)
          round = max_int;
          client = -3;
          latency = 1 lsl 33;
          hops = 70_000;
          status = "ok";
        };
      (* fielded events with every value shape *)
      Span
        {
          name = "reconfig/sample";
          rounds = 3;
          fields =
            [
              ("labels", Int 42);
              ("big", Int (1 lsl 40));
              ("neg", Int (-7));
              ("note", String "a\"b\\c\nd");
              ("long", String (String.make 200 'y'));
              ("ok", Bool true);
              ("off", Bool false);
              ("ratio", Float 0.25);
              ("nz", Float (-0.0));
              ("nan", Float Float.nan);
              ("inf", Float Float.neg_infinity);
            ];
        };
      Adversary { kind = "dos"; fields = [ ("blocked", Int 17) ] };
      Note { name = "header"; fields = [] };
      Fault { kind = "drop"; round = 9; fields = [ ("src", Int 1); ("dst", Int 2) ] };
      Progress
        {
          sweep = "demo";
          cell = "n=64;c=1.5";
          index = 3;
          completed = 4;
          total = 8;
          wall_s = 0.125;
          cached = true;
        };
    ]

let test_trace_binary_roundtrip () =
  let decoded = binary_roundtrip exhaustive_events in
  Alcotest.(check int) "event count" (List.length exhaustive_events)
    (List.length decoded);
  Alcotest.(check bool) "events round-trip exactly" true
    (events_equal exhaustive_events decoded)

let test_trace_binary_export_matches_jsonl () =
  (* the property trace_check --export-jsonl relies on: decoding and
     re-encoding through jsonl_of_event reproduces the text sink's bytes *)
  let direct =
    String.concat "\n" (List.map Simnet.Trace.jsonl_of_event exhaustive_events)
  in
  let exported =
    String.concat "\n"
      (List.map Simnet.Trace.jsonl_of_event (binary_roundtrip exhaustive_events))
  in
  Alcotest.(check string) "export equals direct JSONL" direct exported

let test_trace_binary_corrupt () =
  let path = Filename.temp_file "simnet_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a trace at all";
      close_out oc;
      Alcotest.(check bool) "magic sniff rejects" false
        (Simnet.Trace.is_binary_file path);
      (match Simnet.Trace.read_binary_file path with
      | _ -> Alcotest.fail "expected Failure on bad magic"
      | exception Failure _ -> ());
      (* a truncated but well-started file fails loudly, not silently *)
      let trace = Simnet.Trace.open_file path in
      List.iter (Simnet.Trace.emit trace) exhaustive_events;
      Simnet.Trace.close trace;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 3));
      close_out oc;
      match Simnet.Trace.read_binary_file path with
      | _ -> Alcotest.fail "expected Failure on truncated record"
      | exception Failure _ -> ())

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Simnet.Trace.Int i) int;
        map (fun b -> Simnet.Trace.Float (Int64.float_of_bits b)) int64;
        map (fun b -> Simnet.Trace.Bool b) bool;
        map (fun s -> Simnet.Trace.String s) (string_size (int_range 0 80));
      ])

let field_gen =
  QCheck.Gen.(pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) value_gen)

let event_gen =
  QCheck.Gen.(
    let fields = list_size (int_range 0 6) field_gen in
    let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
    oneof
      [
        map
          (fun ((round, msgs, bits), (max_node_bits, max_node_msgs, blocked)) ->
            Simnet.Trace.Round
              { round; msgs; bits; max_node_bits; max_node_msgs; blocked })
          (pair (triple int int int) (triple int int int));
        map2
          (fun (name, rounds) fields -> Simnet.Trace.Span { name; rounds; fields })
          (pair name int) fields;
        map2
          (fun kind fields -> Simnet.Trace.Adversary { kind; fields })
          name fields;
        map2 (fun name fields -> Simnet.Trace.Note { name; fields }) name fields;
        map2
          (fun (kind, round) fields -> Simnet.Trace.Fault { kind; round; fields })
          (pair name (int_bound 0xffff_ffff))
          fields;
        map
          (fun ((op, status), (round, client, latency), hops) ->
            Simnet.Trace.Request { op; round; client; latency; hops; status })
          (triple
             (pair (string_size (int_range 0 80)) name)
             (triple int int int) int);
        map
          (fun ((sweep, cell), (index, completed, total), (wall_s, cached)) ->
            Simnet.Trace.Progress
              {
                sweep;
                cell;
                index;
                completed;
                total;
                wall_s = Int64.float_of_bits wall_s;
                cached;
              })
          (triple
             (pair (string_size (int_range 0 80)) (string_size (int_range 0 80)))
             (triple int int int) (pair int64 bool));
      ])

let qcheck_trace_binary_roundtrip =
  QCheck.Test.make ~name:"binary trace encodes/decodes arbitrary events"
    ~count:100
    QCheck.(make Gen.(list_size (int_range 0 40) event_gen))
    (fun events -> events_equal events (binary_roundtrip events))

(* The headline satellite: the default JSONL rendering round-trips every
   finite float bit-for-bit through parse_jsonl_line — negative zero,
   subnormals and extreme magnitudes included (nan/infinities are
   deliberately encoded as strings and tested separately above). *)
let qcheck_trace_jsonl_float_roundtrip =
  QCheck.Test.make ~name:"JSONL floats round-trip bit-for-bit by default"
    ~count:2000
    QCheck.(
      oneof
        [
          int64;
          always 0x8000_0000_0000_0000L (* -0.0 *);
          always 1L (* smallest subnormal *);
          always 0x8000_0000_0000_0001L;
          always 0x7FEF_FFFF_FFFF_FFFFL (* max finite *);
        ])
    (fun bits ->
      let f = Int64.float_of_bits bits in
      QCheck.assume (Float.is_finite f);
      let line = Simnet.Trace.jsonl_of_pairs [ ("x", Simnet.Trace.Float f) ] in
      match Simnet.Trace.parse_jsonl_line line with
      | Some [ ("x", Simnet.Trace.Float g) ] ->
          Int64.bits_of_float g = Int64.bits_of_float f
      | _ -> false)

(* ---------- Snapshots ---------- *)

let test_snapshots_lateness () =
  let s = Simnet.Snapshots.create ~lateness:3 (Prng.Stream.of_seed 1L) in
  Alcotest.(check (option int)) "empty" None (Simnet.Snapshots.view s);
  Simnet.Snapshots.push s 100;
  Simnet.Snapshots.push s 101;
  Simnet.Snapshots.push s 102;
  Alcotest.(check (option int)) "too fresh" None (Simnet.Snapshots.view s);
  Simnet.Snapshots.push s 103;
  (* 4 pushed: current round 3, visible = round 0 *)
  Alcotest.(check (option int)) "sees round 0" (Some 100) (Simnet.Snapshots.view s);
  Simnet.Snapshots.push s 104;
  Alcotest.(check (option int)) "sees round 1" (Some 101) (Simnet.Snapshots.view s)

let test_snapshots_zero_late () =
  let s = Simnet.Snapshots.create ~lateness:0 (Prng.Stream.of_seed 1L) in
  Simnet.Snapshots.push s 7;
  Alcotest.(check (option int)) "0-late sees current" (Some 7)
    (Simnet.Snapshots.view s);
  Simnet.Snapshots.push s 8;
  Alcotest.(check (option int)) "still current" (Some 8) (Simnet.Snapshots.view s)

let test_snapshots_view_at () =
  let s = Simnet.Snapshots.create ~lateness:2 (Prng.Stream.of_seed 1L) in
  List.iter (Simnet.Snapshots.push s) [ 10; 11; 12; 13; 14 ];
  (* current round 4; visible rounds are <= 2 *)
  Alcotest.(check (option int)) "round 2 visible" (Some 12)
    (Simnet.Snapshots.view_at s 2);
  Alcotest.(check (option int)) "round 3 hidden" None
    (Simnet.Snapshots.view_at s 3);
  Alcotest.(check (option int)) "round 0 evicted (ring keeps lateness+1)" None
    (Simnet.Snapshots.view_at s 0)

(* ---------- Invariants collectors ---------- *)

let kinds = List.map Simnet.Invariants.kind_of

let test_collect_clean () =
  Alcotest.(check (list string))
    "clean cycle" []
    (kinds (Simnet.Invariants.check_cycle_all [| 1; 2; 3; 0 |]));
  Alcotest.(check (list string))
    "clean family" []
    (kinds
       (Simnet.Invariants.check_all ~m:4 [| [| 1; 2; 3; 0 |]; [| 3; 0; 1; 2 |] |]))

let test_collect_all_defects_in_order () =
  (* node 1 points out of range, node 2 collides with node 0 on successor
     1; the collector reports both in node order where check_cycle stops
     at the first *)
  let succ = [| 1; 9; 1; 0 |] in
  Alcotest.(check (list string))
    "both defects, node order"
    [ "successor_out_of_range"; "successor_not_injective" ]
    (kinds (Simnet.Invariants.check_cycle_all succ));
  match Simnet.Invariants.check_cycle succ with
  | Error (Simnet.Invariants.Successor_out_of_range { node = 1; succ = 9; _ })
    ->
      ()
  | _ -> Alcotest.fail "check_cycle should stop at the out-of-range entry"

let test_collect_one_violation_per_orbit () =
  (* permutation with three orbits {0,1}, {2,3}, {4,5}: one violation per
     orbit beyond node 0's *)
  let vs = Simnet.Invariants.check_cycle_all [| 1; 0; 3; 2; 5; 4 |] in
  Alcotest.(check (list string))
    "two extra orbits"
    [ "not_single_cycle"; "not_single_cycle" ]
    (kinds vs);
  List.iter
    (function
      | Simnet.Invariants.Not_single_cycle { reached; size; _ } ->
          Alcotest.(check int) "orbit length" 2 reached;
          Alcotest.(check int) "size" 6 size
      | v -> Alcotest.failf "unexpected %s" (Simnet.Invariants.describe v))
    vs

let test_collect_family_size_mismatch () =
  Alcotest.(check (list string))
    "short cycle flagged, then checked on its own terms"
    [ "size_mismatch" ]
    (kinds
       (Simnet.Invariants.check_cycles_all ~m:4
          [| [| 1; 2; 3; 0 |]; [| 1; 2; 0 |] |]))

let test_collect_connectivity () =
  (* a 2-orbit permutation alone leaves {0,1} and {2,3} disconnected; a
     second, intact cycle bridges them *)
  Alcotest.(check (list string))
    "orbit defect plus disconnection"
    [ "not_single_cycle"; "disconnected" ]
    (kinds (Simnet.Invariants.check_all ~m:4 [| [| 1; 0; 3; 2 |] |]));
  Alcotest.(check (list string))
    "second cycle restores connectivity"
    [ "not_single_cycle" ]
    (kinds
       (Simnet.Invariants.check_all ~m:4 [| [| 1; 0; 3; 2 |]; [| 1; 2; 3; 0 |] |]))

(* ---------- Snapshots staleness distributions ---------- *)

let staleness_testable =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt (Simnet.Snapshots.staleness_to_string s))
    ( = )

let test_staleness_strings () =
  List.iter
    (fun (s, expected) ->
      match Simnet.Snapshots.staleness_of_string s with
      | Error e -> Alcotest.failf "%s: %s" s e
      | Ok d ->
          Alcotest.(check staleness_testable) ("parse " ^ s) expected d;
          Alcotest.(check string)
            ("round-trip " ^ s) s
            (Simnet.Snapshots.staleness_to_string d))
    [
      ("3", Simnet.Snapshots.Fixed 3);
      ("0", Simnet.Snapshots.Fixed 0);
      ("2.5", Simnet.Snapshots.Mixed 2.5);
      (* "3.0" stays Mixed: same expectation as Fixed 3 but drawn, and the
         spec string distinguishes them *)
      ("3.0", Simnet.Snapshots.Mixed 3.0);
      ("1..4", Simnet.Snapshots.Uniform (1, 4));
    ];
  List.iter
    (fun s ->
      match Simnet.Snapshots.staleness_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s)
    [ "-1"; "-0.5"; "nan"; "4..1"; "-2..3"; "1.5..2"; "x"; "" ]

let test_staleness_fixed_drawn_matches_create () =
  let a = Simnet.Snapshots.create ~lateness:3 (Prng.Stream.of_seed 1L)
  and b =
    Simnet.Snapshots.create ~staleness:(Simnet.Snapshots.Fixed 3) ~lateness:0
      (Prng.Stream.of_seed 1L)
  in
  for i = 0 to 9 do
    Simnet.Snapshots.push a i;
    Simnet.Snapshots.push b i;
    Alcotest.(check (option int))
      (Printf.sprintf "view agrees after push %d" i)
      (Simnet.Snapshots.view a) (Simnet.Snapshots.view b)
  done

let test_staleness_mixed_fractional () =
  let s =
    Simnet.Snapshots.create ~staleness:(Simnet.Snapshots.Mixed 0.25) ~lateness:0
      (Prng.Stream.of_seed 7L)
  in
  let pushes = 400 in
  let total = ref 0 in
  for i = 0 to pushes - 1 do
    Simnet.Snapshots.push s i;
    let l = Simnet.Snapshots.current_lateness s in
    Alcotest.(check bool) "draw in {0,1}" true (l = 0 || l = 1);
    total := !total + l
  done;
  let mean = float_of_int !total /. float_of_int pushes in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 0.25" mean)
    true
    (Float.abs (mean -. 0.25) < 0.08)

let test_staleness_uniform_bounds () =
  let s =
    Simnet.Snapshots.create ~staleness:(Simnet.Snapshots.Uniform (1, 4)) ~lateness:0
      (Prng.Stream.of_seed 9L)
  in
  let hit = Array.make 5 false in
  for i = 0 to 199 do
    Simnet.Snapshots.push s i;
    let l = Simnet.Snapshots.current_lateness s in
    Alcotest.(check bool) "draw in [1,4]" true (l >= 1 && l <= 4);
    hit.(l) <- true
  done;
  for l = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "lateness %d drawn" l) true hit.(l)
  done

let test_staleness_drawn_deterministic () =
  let draws seed =
    let s =
      Simnet.Snapshots.create ~staleness:(Simnet.Snapshots.Mixed 1.5) ~lateness:0
        (Prng.Stream.of_seed seed)
    in
    List.init 50 (fun i ->
        Simnet.Snapshots.push s i;
        Simnet.Snapshots.current_lateness s)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draws 3L) (draws 3L);
  Alcotest.(check bool)
    "different seed, different draws" true
    (draws 3L <> draws 4L)

(* ---------- properties ---------- *)

let qcheck_engine_conserves_messages =
  QCheck.Test.make ~name:"unblocked engine delivers exactly what is sent"
    ~count:100
    QCheck.(pair int64 (int_range 2 20))
    (fun (seed, n) ->
      let rng = Prng.Stream.of_seed seed in
      let eng = Simnet.Engine.create ~n () in
      let sent = ref 0 in
      Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
          for _ = 1 to Prng.Stream.int rng 5 do
            incr sent;
            Simnet.Engine.send eng ~src:me ~dst:(Prng.Stream.int rng n) "m"
          done);
      let received = ref 0 in
      Testutil.step eng (fun ~round:_ ~me:_ ~inbox ->
          received := !received + List.length inbox);
      !sent = !received)

let qcheck_blocking_rule_reference_model =
  (* Fuzz the full blocking semantics: every node sends to every node in
     round 0 under a random blocked set; a message must be received in
     round 1 iff src and dst were non-blocked at round 0 and dst is
     non-blocked at round 1 — the exact rule of Section 1.1. *)
  QCheck.Test.make ~name:"blocking semantics match the reference predicate"
    ~count:100
    QCheck.(pair int64 (int_range 2 12))
    (fun (seed, n) ->
      let rng = Prng.Stream.of_seed seed in
      let b0 = Array.init n (fun _ -> Prng.Stream.bool rng) in
      let b1 = Array.init n (fun _ -> Prng.Stream.bool rng) in
      let eng = Simnet.Engine.create ~n () in
      Simnet.Engine.set_blocked eng (fun v -> b0.(v));
      Testutil.step eng (fun ~round:_ ~me ~inbox:_ ->
          for dst = 0 to n - 1 do
            Simnet.Engine.send eng ~src:me ~dst (Printf.sprintf "%d->%d" me dst)
          done);
      Simnet.Engine.set_blocked eng (fun v -> b1.(v));
      let received = Hashtbl.create 64 in
      Testutil.step eng (fun ~round:_ ~me ~inbox ->
          List.iter (fun (src, _) -> Hashtbl.replace received (src, me) ()) inbox);
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let expected = (not b0.(src)) && (not b0.(dst)) && not b1.(dst) in
          if Hashtbl.mem received (src, dst) <> expected then ok := false
        done
      done;
      !ok)

let qcheck_collector_agrees_with_checker =
  (* check_cycle_all is empty exactly when check_cycle accepts, and its
     first element has the kind check_cycle stops on (out-of-range and
     collisions come before orbit analysis in both). *)
  QCheck.Test.make ~name:"all-violations collector refines check_cycle"
    ~count:500
    QCheck.(pair (int_range 1 24) (small_list (int_range (-2) 30)))
    (fun (size, noise) ->
      let succ = Array.init size (fun v -> (v + 1) mod size) in
      List.iteri
        (fun i x -> succ.(i mod size) <- x)
        noise;
      let all = Simnet.Invariants.check_cycle_all succ in
      match Simnet.Invariants.check_cycle succ with
      | Ok () -> all = []
      | Error v -> (
          match all with
          | [] -> false
          | first :: _ ->
              Simnet.Invariants.kind_of first = Simnet.Invariants.kind_of v))

let qcheck_snapshots_never_fresh =
  QCheck.Test.make ~name:"snapshots never reveal data fresher than lateness"
    ~count:200
    QCheck.(pair (int_range 0 10) (int_range 1 40))
    (fun (lateness, pushes) ->
      let s = Simnet.Snapshots.create ~lateness (Prng.Stream.of_seed 1L) in
      let ok = ref true in
      for i = 0 to pushes - 1 do
        Simnet.Snapshots.push s i;
        match Simnet.Snapshots.view s with
        | None -> if i >= lateness then ok := false
        | Some v -> if i - v < lateness then ok := false
      done;
      !ok)

(* ---------- Engine inbox order and memory ---------- *)

let test_manual_sends_inbox_order () =
  (* Manual out-of-compute sends from senders far apart, issued in
     descending-id order: the inbox lists them in global send order. *)
  let eng = Simnet.Engine.create ~n:48 () in
  Simnet.Engine.send eng ~src:40 ~dst:0 1;
  Simnet.Engine.send eng ~src:5 ~dst:0 2;
  Simnet.Engine.send eng ~src:40 ~dst:0 3;
  Simnet.Engine.send eng ~src:6 ~dst:0 4;
  let got = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 0 then got := inbox);
  Alcotest.(check (list (pair int int)))
    "strict send order"
    [ (40, 1); (5, 2); (40, 3); (6, 4) ]
    !got

let test_create_rejects_wide_n () =
  Alcotest.check_raises "n = 2^31"
    (Invalid_argument "Engine.create: n >= 2^31") (fun () ->
      ignore (Simnet.Engine.create ~n:(1 lsl 31) ()))

(* Plant a weakly-held payload in a fresh stack frame so no local binding
   keeps it alive after the send. *)
let[@inline never] plant eng w =
  let payload = Bytes.make 16 'x' in
  Weak.set w 0 (Some payload);
  Simnet.Engine.send eng ~src:0 ~dst:1 payload

let delivered_payload_collected ?faults () =
  let eng = Simnet.Engine.create ?faults ~n:8 () in
  let w = Weak.create 1 in
  plant eng w;
  (* Deliver it (without keeping a reference) and finish the round. *)
  Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me:_ ~inbox ->
      Simnet.Engine.slice_iter (fun ~src:_ _ -> ()) inbox);
  Gc.full_major ();
  Weak.get w 0 = None

let test_no_stale_retention () =
  Alcotest.(check bool) "payload collected after delivery" true
    (delivered_payload_collected ())

let test_no_stale_retention_faulted () =
  (* A duplicate fault routes the payload through the faulted planes
     twice; neither copy may outlive the round. *)
  Alcotest.(check bool) "payload collected after faulted delivery" true
    (delivered_payload_collected
       ~faults:(Simnet.Faults.make ~duplicate:1.0 ())
       ())

let test_million_node_create_is_lean () =
  (* A fault-free million-node engine must not eagerly allocate the
     per-node delay array or the fault planes (8 MB each at n = 2^20):
     creation stays under 4 MB of OCaml heap allocation, and a round on
     sparse traffic does not change that. *)
  let n = 1 lsl 20 in
  let before = Gc.allocated_bytes () in
  let eng = Simnet.Engine.create ~n () in
  let created = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates < 4MB (got %.0f)" created)
    true
    (created < 4.0 *. 1024.0 *. 1024.0);
  Simnet.Engine.send eng ~src:0 ~dst:(n - 1) 7;
  let got = ref 0 in
  let count ~src:_ _ = incr got in
  Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me:_ ~inbox ->
      Simnet.Engine.slice_iter count inbox);
  let total = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "message arrived" 1 !got;
  Alcotest.(check bool)
    (Printf.sprintf "a round stays < 4MB (got %.0f)" total)
    true
    (total < 4.0 *. 1024.0 *. 1024.0)

let () =
  Alcotest.run "simnet"
    [
      ( "msg-size",
        [
          Alcotest.test_case "id bits" `Quick test_id_bits;
          Alcotest.test_case "ids msg" `Quick test_ids_msg;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "rounds" `Quick test_metrics_rounds;
          Alcotest.test_case "max ever" `Quick test_metrics_max_ever;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery next round" `Quick
            test_engine_delivery_next_round;
          Alcotest.test_case "arrival order" `Quick test_engine_arrival_order;
          Alcotest.test_case "no blocking" `Quick test_blocking_none;
          Alcotest.test_case "sender blocked at send" `Quick
            test_blocking_sender_at_send;
          Alcotest.test_case "receiver blocked at send" `Quick
            test_blocking_receiver_at_send;
          Alcotest.test_case "receiver blocked at delivery" `Quick
            test_blocking_receiver_at_delivery;
          Alcotest.test_case "send from blocked dropped" `Quick
            test_send_from_blocked_dropped;
          Alcotest.test_case "blocking resets" `Quick
            test_blocking_resets_each_round;
          Alcotest.test_case "blocked nodes do not compute" `Quick
            test_blocked_node_does_not_compute;
          Alcotest.test_case "set_blocked after send raises" `Quick
            test_set_blocked_after_send_raises;
          Alcotest.test_case "create rejects n >= 2^31" `Quick
            test_create_rejects_wide_n;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "cross-shard manual sends follow the contract"
            `Quick test_manual_sends_inbox_order;
        ] );
      ( "memory",
        [
          Alcotest.test_case "no stale retention (faulted)" `Quick
            test_no_stale_retention_faulted;
          Alcotest.test_case "no stale retention (flat)" `Quick
            test_no_stale_retention;
          Alcotest.test_case "million-node create is lean" `Quick
            test_million_node_create_is_lean;
        ] );
      ( "trace",
        [
          Alcotest.test_case "engine JSONL round-trip" `Quick
            test_trace_jsonl_engine_roundtrip;
          Alcotest.test_case "event serialization round-trip" `Quick
            test_trace_event_serialization_roundtrip;
          Alcotest.test_case "null trace disabled" `Quick
            test_trace_null_is_disabled;
          Alcotest.test_case "binary round-trip" `Quick
            test_trace_binary_roundtrip;
          Alcotest.test_case "binary export = JSONL bytes" `Quick
            test_trace_binary_export_matches_jsonl;
          Alcotest.test_case "binary corrupt input fails loudly" `Quick
            test_trace_binary_corrupt;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "lateness" `Quick test_snapshots_lateness;
          Alcotest.test_case "0-late" `Quick test_snapshots_zero_late;
          Alcotest.test_case "view_at" `Quick test_snapshots_view_at;
          Alcotest.test_case "staleness strings" `Quick test_staleness_strings;
          Alcotest.test_case "drawn Fixed = create" `Quick
            test_staleness_fixed_drawn_matches_create;
          Alcotest.test_case "Mixed fractional draws" `Quick
            test_staleness_mixed_fractional;
          Alcotest.test_case "Uniform bounds" `Quick
            test_staleness_uniform_bounds;
          Alcotest.test_case "drawn lateness deterministic" `Quick
            test_staleness_drawn_deterministic;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean states collect nothing" `Quick
            test_collect_clean;
          Alcotest.test_case "all defects in node order" `Quick
            test_collect_all_defects_in_order;
          Alcotest.test_case "one violation per extra orbit" `Quick
            test_collect_one_violation_per_orbit;
          Alcotest.test_case "family size mismatch" `Quick
            test_collect_family_size_mismatch;
          Alcotest.test_case "union connectivity" `Quick
            test_collect_connectivity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_engine_conserves_messages;
            qcheck_blocking_rule_reference_model;
            qcheck_collector_agrees_with_checker;
            qcheck_snapshots_never_fresh;
            qcheck_trace_binary_roundtrip;
            qcheck_trace_jsonl_float_roundtrip;
          ] );
    ]

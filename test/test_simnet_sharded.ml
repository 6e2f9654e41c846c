(* Tests for the sharded struct-of-arrays engine core (Simnet.Engine).

   The load-bearing properties: the shard width and the worker-domain
   count are pure tuning knobs — same-seed runs produce byte-identical
   binary traces and identical loss accounting at any (shard_bits,
   domains), with drop/duplicate/delay/crash plans active and without
   them; delivered message payloads are not retained by the engine's
   buffers, faulted or not; and the delay and fault planes at n = 10^6
   are allocated lazily. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A deterministic compute-driven workload: every node sends to a spread
   of neighbours derived from (round, me), with a rotating blocked set,
   and the transcript of every delivered (round, me, src, msg) is
   appended to [log] when provided. *)
let run_workload ?faults ?(trace = Simnet.Trace.null) ?domains ?shard_bits
    ?log ~n ~rounds () =
  let eng =
    Simnet.Engine.create ~trace ?faults ?domains ?shard_bits ~n ()
  in
  for r = 0 to rounds - 1 do
    Simnet.Engine.set_blocked eng (fun v -> (r + v) mod 7 = 0);
    Testutil.step eng (fun ~round ~me ~inbox ->
        (match log with
        | Some log ->
            List.iter
              (fun (src, msg) -> log := (round, me, src, msg) :: !log)
              inbox
        | None -> ());
        for k = 1 to 3 do
          Simnet.Engine.send eng ~src:me
            ~dst:((me + (k * (1 + (round mod 5)))) mod n)
            "m"
        done)
  done;
  eng

(* One traced binary run; returns (bytes, losses, delivered transcript). *)
let traced_run ?faults ?domains ?shard_bits ~n ~rounds () =
  let path = Filename.temp_file "sharded" ".bin" in
  let trace = Simnet.Trace.open_file ~format:Simnet.Trace.Binary path in
  let log = ref [] in
  let eng = run_workload ?faults ~trace ?domains ?shard_bits ~log ~n ~rounds () in
  Simnet.Trace.close trace;
  let bytes = read_file path in
  Sys.remove path;
  (bytes, Simnet.Engine.losses eng, List.rev !log)

(* ---------- shard/domain invariance ---------- *)

let chaos_plan =
  Simnet.Faults.make ~drop:0.1 ~duplicate:0.05 ~delay_p:0.2 ~delay_max:2
    ~crash:2 ~crash_round:3 ~recover_after:4 ()

let test_shard_bits_invariance () =
  (* shard_bits=14 puts all of n=96 in one shard (the unsharded layout);
     shard_bits=4 splits it into 6 shards.  Everything must agree. *)
  let b1, l1, t1 = traced_run ~faults:chaos_plan ~shard_bits:14 ~n:96 ~rounds:12 () in
  let b4, l4, t4 = traced_run ~faults:chaos_plan ~shard_bits:4 ~n:96 ~rounds:12 () in
  Alcotest.(check bool) "trace bytes identical" true (b1 = b4);
  Alcotest.(check bool) "losses identical" true (l1 = l4);
  Alcotest.(check bool) "transcripts identical" true (t1 = t4)

let qcheck_domains_and_shards_invariant =
  let plan_gen =
    let open QCheck.Gen in
    let* drop = float_bound_inclusive 0.2 in
    let* duplicate = float_bound_inclusive 0.1 in
    let* delay_p = float_bound_inclusive 0.2 in
    let* delay_max = int_range 1 3 in
    let* crash = int_range 0 2 in
    let* seed = int_range 0 100_000 in
    return
      (Simnet.Faults.make ~drop ~duplicate ~delay_p ~delay_max ~crash
         ~crash_round:2 ~recover_after:3
         ~seed:(Int64.of_int seed) ())
  in
  let case_gen =
    let open QCheck.Gen in
    let* plan = plan_gen in
    let* n = int_range 17 120 in
    let* rounds = int_range 2 10 in
    return (plan, n, rounds)
  in
  QCheck.Test.make
    ~name:"sharded engine: (shard_bits, domains) never change a faulted run"
    ~count:25 (QCheck.make case_gen) (fun (plan, n, rounds) ->
      (* Reference: the unsharded layout (one shard, one domain). *)
      let ref_bytes, ref_losses, ref_log =
        traced_run ~faults:plan ~shard_bits:14 ~domains:1 ~n ~rounds ()
      in
      List.for_all
        (fun domains ->
          let b, l, t =
            traced_run ~faults:plan ~shard_bits:4 ~domains ~n ~rounds ()
          in
          b = ref_bytes && l = ref_losses && t = ref_log)
        [ 1; 2; 4 ])

(* ---------- inbox order contract ---------- *)

let test_cross_shard_inbox_order () =
  (* Manual out-of-compute sends from two different sender shards, issued
     in descending-shard order.  The contract says dst receives them
     grouped by sender shard ascending, send order within. *)
  let eng = Simnet.Engine.create ~shard_bits:4 ~n:48 () in
  Simnet.Engine.send eng ~src:40 ~dst:0 1;
  Simnet.Engine.send eng ~src:5 ~dst:0 2;
  Simnet.Engine.send eng ~src:40 ~dst:0 3;
  Simnet.Engine.send eng ~src:6 ~dst:0 4;
  let got = ref [] in
  Testutil.step eng (fun ~round:_ ~me ~inbox ->
      if me = 0 then got := inbox);
  Alcotest.(check (list (pair int int)))
    "sender-shard-major order"
    [ (5, 2); (6, 4); (40, 1); (40, 3) ]
    !got

(* ---------- fault-free slices ---------- *)

let transcript ~shard_bits ~n ~rounds =
  let eng = Simnet.Engine.create ~shard_bits ~domains:1 ~n () in
  let logs = Array.make n [] in
  for r = 0 to rounds - 1 do
    Simnet.Engine.set_blocked eng (fun v -> (r + v) mod 7 = 0);
    Simnet.Engine.deliver_and_step eng (fun ~round ~me ~inbox ->
        Simnet.Engine.slice_iter
          (fun ~src msg -> logs.(me) <- (round, src, msg) :: logs.(me))
          inbox;
        for k = 1 to 3 do
          Simnet.Engine.send eng ~src:me ~dst:((me + (k * 7)) mod n) (me + (r * n))
        done)
  done;
  Array.map List.rev logs

let test_shard_width_keeps_inboxes () =
  (* shard_bits=14 is one shard at n=100, shard_bits=4 is seven. *)
  Alcotest.(check bool) "seven shards deliver the one-shard inboxes" true
    (transcript ~shard_bits:4 ~n:100 ~rounds:8
    = transcript ~shard_bits:14 ~n:100 ~rounds:8)

let test_parallel_merge_deterministic () =
  (* Enough staged traffic to clear the parallel threshold (2^15), so
     domains=4 really runs the merge shard-parallel. *)
  let n = 4096 and rounds = 3 in
  let run domains =
    let eng = Simnet.Engine.create ~shard_bits:8 ~domains ~n () in
    let acc = Array.make n 0 in
    for r = 0 to rounds - 1 do
      Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me ~inbox ->
          Simnet.Engine.slice_iter (fun ~src msg -> acc.(me) <- acc.(me) + src + msg) inbox;
          for k = 1 to 10 do
            Simnet.Engine.send eng ~src:me ~dst:((me + (k * 131)) mod n) (me + r)
          done)
    done;
    acc
  in
  Alcotest.(check bool) "domains=4 matches domains=1" true (run 1 = run 4)

(* ---------- payload retention ---------- *)

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
      ignore (Simnet.Engine.slice_len inbox));
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

(* ---------- lazy allocation at scale ---------- *)

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
  Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me:_ ~inbox ->
      got := !got + Simnet.Engine.slice_len inbox);
  let total = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "message arrived" 1 !got;
  Alcotest.(check bool)
    (Printf.sprintf "a round stays < 4MB (got %.0f)" total)
    true
    (total < 4.0 *. 1024.0 *. 1024.0)

let () =
  Alcotest.run "simnet_sharded"
    [
      ( "invariance",
        [
          Alcotest.test_case "shard_bits never change a faulted run" `Quick
            test_shard_bits_invariance;
          Alcotest.test_case "cross-shard manual sends follow the contract"
            `Quick test_cross_shard_inbox_order;
        ] );
      ( "flat",
        [
          Alcotest.test_case "shard width keeps fault-free inboxes" `Quick
            test_shard_width_keeps_inboxes;
          Alcotest.test_case "parallel flat is deterministic" `Quick
            test_parallel_merge_deterministic;
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
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_domains_and_shards_invariant ] );
    ]

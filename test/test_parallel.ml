(* Tests for the fork-join helper used by the experiment harness. *)

let test_map_matches_sequential () =
  let xs = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results, same order" (Array.map f xs)
    (Parallel.map ~domains:4 f xs)

let test_map_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 42 |]
    (Parallel.map ~domains:8 (fun x -> x * 2) [| 21 |])

let test_exception_propagates () =
  Alcotest.check_raises "task exception reaches the caller"
    (Invalid_argument "boom") (fun () ->
      ignore
        (Parallel.map ~domains:3
           (fun x -> if x = 7 then invalid_arg "boom" else x)
           (Array.init 20 (fun i -> i))))

(* A recursive raiser deep enough that its frames show up in the backtrace;
   [@inline never] keeps the name visible. *)
let[@inline never] rec deep_raiser n =
  if n = 0 then failwith "deep boom" else 1 + deep_raiser (n - 1)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exception_keeps_backtrace () =
  (* The worker's backtrace must survive the cross-domain re-raise: the
     frames of the raising task (this file), not just the join loop's
     re-raise point.  Before raise_with_backtrace the trace was truncated
     to parallel.ml. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let bt =
    try
      ignore
        (Parallel.map ~domains:2
           (fun x -> if x = 3 then deep_raiser 40 else x)
           (Array.init 8 (fun i -> i)));
      Alcotest.fail "expected exception"
    with Failure _ -> Printexc.get_backtrace ()
  in
  Printexc.record_backtrace prev;
  Alcotest.(check bool)
    (Printf.sprintf "backtrace reaches the raising task's frames:\n%s" bt)
    true
    (contains_substring bt "test_parallel")

let test_deterministic_with_seeded_tasks () =
  (* The harness contract: tasks seeded by identity give bit-identical
     results at any parallelism. *)
  let task i =
    let rng = Prng.Stream.of_seed (Int64.of_int (1000 + i)) in
    Array.init 50 (fun _ -> Prng.Stream.int rng 1_000_000)
  in
  let xs = Array.init 32 (fun i -> i) in
  let seq = Parallel.map ~domains:1 task xs in
  let par = Parallel.map ~domains:4 task xs in
  Alcotest.(check bool) "identical across parallelism" true (seq = par)

let test_default_domains_positive () =
  Alcotest.(check bool) "at least one" true (Parallel.default_domains () >= 1)

let test_overlay_domains_override () =
  (* OVERLAY_DOMAINS pins the worker count; junk and non-positive values
     must fall back / clamp rather than disable the harness. *)
  let with_env v f =
    Unix.putenv "OVERLAY_DOMAINS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "OVERLAY_DOMAINS" "") f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "override honored" 3 (Parallel.default_domains ()));
  with_env " 7 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 7 (Parallel.default_domains ()));
  with_env "0" (fun () ->
      Alcotest.(check int) "clamped to >= 1" 1 (Parallel.default_domains ()));
  with_env "-4" (fun () ->
      Alcotest.(check int) "negative clamped" 1 (Parallel.default_domains ()));
  with_env "lots" (fun () ->
      Alcotest.(check bool) "junk falls back" true
        (Parallel.default_domains () >= 1))

let test_actually_concurrent () =
  (* Crude but effective: with 2 domains, two blocking tasks that each
     spin until the other has started can only finish if they really run
     concurrently. *)
  if Parallel.default_domains () >= 2 then begin
    let a_started = Atomic.make false and b_started = Atomic.make false in
    let spin_until flag mine =
      Atomic.set mine true;
      let tries = ref 0 in
      while (not (Atomic.get flag)) && !tries < 100_000_000 do
        incr tries
      done;
      Atomic.get flag
    in
    let results =
      Parallel.map ~domains:2
        (fun i ->
          if i = 0 then spin_until b_started a_started
          else spin_until a_started b_started)
        [| 0; 1 |]
    in
    Alcotest.(check (array bool)) "both saw each other" [| true; true |] results
  end

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "exceptions keep backtraces" `Quick
            test_exception_keeps_backtrace;
          Alcotest.test_case "deterministic seeded tasks" `Quick
            test_deterministic_with_seeded_tasks;
          Alcotest.test_case "default domains" `Quick test_default_domains_positive;
          Alcotest.test_case "OVERLAY_DOMAINS override" `Quick
            test_overlay_domains_override;
          Alcotest.test_case "actually concurrent" `Quick test_actually_concurrent;
        ] );
    ]

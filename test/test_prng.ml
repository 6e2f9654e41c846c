(* Tests for the PRNG substrate: determinism, splitting, distribution
   sanity, and the exactness properties the samplers rely on. *)

let stream () = Prng.Stream.of_seed 12345L

let test_splitmix_deterministic () =
  let a = Prng.Splitmix64.create 99L and b = Prng.Splitmix64.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let test_splitmix_mix_bijective_sample () =
  (* mix is a bijection; distinct inputs give distinct outputs (spot check
     over a contiguous range). *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    let v = Prng.Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_xoshiro_known_nonzero () =
  let g = Prng.Xoshiro256.of_seed 0L in
  let all_zero = ref true in
  for _ = 1 to 10 do
    if Prng.Xoshiro256.next g <> 0L then all_zero := false
  done;
  Alcotest.(check bool) "produces non-zero output" false !all_zero

let test_xoshiro_copy_independent () =
  let g = Prng.Xoshiro256.of_seed 7L in
  ignore (Prng.Xoshiro256.next g);
  let h = Prng.Xoshiro256.copy g in
  let a = Prng.Xoshiro256.next g in
  let b = Prng.Xoshiro256.next h in
  Alcotest.(check int64) "copy continues identically" a b;
  (* advancing one must not affect the other *)
  ignore (Prng.Xoshiro256.next g);
  let c = Prng.Xoshiro256.next g and d = Prng.Xoshiro256.next h in
  Alcotest.(check bool) "streams diverge after different consumption" true
    (c <> d || a <> b)

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

(* Known answers, generated before the xoshiro state moved from int64
   fields to a byte buffer: the representation must not change the bit
   stream. *)
let xoshiro_kat =
  [
    ( 0L,
      [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
        7684712102626143532L; -4925340083591827879L; -4640532413560118L;
        7788427924976520344L; -8565655843838424513L ] );
    ( 7L,
      [ -5523389002881075622L; 5142052590334782674L; -2958351167216911978L;
        -348685429060373952L; -168598097271454952L; -2346906591474643895L;
        1120678062349637716L; 1926500276298015196L ] );
  ]

(* Stream.int answers for Stream.of_seed 12345L, one fresh stream per
   bound.  3 lsl 60 rejects a quarter of the raw draws, so the rejection
   loop is on the pinned path. *)
let int_kat =
  [
    (2, [ 1; 1; 0; 1; 0; 0; 0; 1; 1; 0; 1; 0; 1; 0; 0; 0 ]);
    (7, [ 5; 6; 0; 3; 1; 1; 6; 4; 0; 5; 3; 1; 6; 0; 3; 1 ]);
    ( 1000,
      [ 741; 499; 628; 697; 172; 698; 404; 855; 107; 590; 529; 438; 797; 912;
        584; 188 ] );
    ( 1 lsl 40,
      [ 118660033101; 13351732323; 478027606468; 301306966041; 375652934436;
        60396046274; 171635276620; 987245768543; 348269338267; 143452490414;
        584257786345; 922991409134; 1062470619821; 628994005240;
        753966324176; 1083096487740 ] );
    ( 3 lsl 60,
      [ 3401654899022260813; 1199458347604198499; 445858863439900697;
        1661893509338686244; 98487714942453698; 1473685501948099404;
        2728314846757973855; 101141124373569179; 1495997543255062510;
        1253947585956485584; 765438512119106824; 1524850661724811311;
        526539913618463085; 847974783280965743; 3054856479391108609;
        1210380413045561114 ] );
  ]

let bool_kat =
  [ true; false; false; true; false; false; true; false; false; true; false;
    false; true; true; true; true ]

let float_kat =
  [ 0x1.7cd46c6e82c1ap-1; 0x1.0a555031bd344p-3; 0x1.ed3a2dbd32a9ap-1;
    0x1.8c009189d2dcp-5; 0x1.1c40ed5ddaa38p-1; 0x1.5de60e0fe284p-7;
    0x1.4739527f64278p-3; 0x1.2ee75f2ee3776p-2; 0x1.8b3a9a88b3c2ep-2;
    0x1.d23be08599bd2p-1; 0x1.904de22021e94p-1; 0x1.130b675b9a4cdp-1;
    0x1.add843dd80bc4p-1; 0x1.e217fa49cbdb6p-1; 0x1.166eaaf8be518p-3;
    0x1.ba8ee7f0b6535p-1 ]

let draws f expected = List.map (fun _ -> f ()) expected

let test_xoshiro_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let g = Prng.Xoshiro256.of_seed seed in
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %Ld" seed)
        expected
        (draws (fun () -> Prng.Xoshiro256.next g) expected))
    xoshiro_kat

let test_stream_known_answers () =
  List.iter
    (fun (bound, expected) ->
      let s = stream () in
      Alcotest.(check (list int))
        (Printf.sprintf "int %d" bound)
        expected
        (draws (fun () -> Prng.Stream.int s bound) expected))
    int_kat;
  let s = stream () in
  Alcotest.(check (list bool)) "bool" bool_kat
    (draws (fun () -> Prng.Stream.bool s) bool_kat);
  let s = stream () in
  Alcotest.(check (list (float 0.0))) "float" float_kat
    (draws (fun () -> Prng.Stream.float s 1.0) float_kat)

(* Minor-heap words per call of [f], over 10^5 calls. *)
let words_per_draw f =
  let s = stream () in
  f s;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    f s
  done;
  (Gc.minor_words () -. w0) /. 1e5

let test_draws_allocation_free () =
  let check name f =
    let w = words_per_draw f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.3f words/draw" name w) true
      (w < 0.01)
  in
  check "int" (fun s -> ignore (Prng.Stream.int s 1000));
  check "int with rejection" (fun s -> ignore (Prng.Stream.int s (3 lsl 60)));
  check "bool" (fun s -> ignore (Prng.Stream.bool s));
  (* A float returned across a module boundary is boxed (2 words); the draw
     itself allocates nothing. *)
  let w = words_per_draw (fun s -> ignore (Prng.Stream.float s 1.0)) in
  Alcotest.(check bool) (Printf.sprintf "float: %.3f words/draw" w) true
    (w < 2.01)

let test_kary_sampler_allocation () =
  (* The robust DHT's reshuffle shape: only the result arrays and the
     major-heap planes are allocated, no per-draw garbage. *)
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:6 in
  let w0 = Gc.minor_words () in
  ignore (Core.Rapid_kary.run ~c:6.8 ~rng:(stream ()) cube);
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" w) true (w < 1e6)

let test_stream_determinism () =
  let a = stream () and b = stream () in
  for _ = 1 to 200 do
    Alcotest.(check int) "same ints" (Prng.Stream.int a 1000)
      (Prng.Stream.int b 1000)
  done

let test_split_independence () =
  (* children from successive splits must differ from each other and from
     the parent stream *)
  let s = stream () in
  let c1 = Prng.Stream.split s and c2 = Prng.Stream.split s in
  let seq st = Array.init 32 (fun _ -> Prng.Stream.bits64 st) in
  let s1 = seq c1 and s2 = seq c2 and s0 = seq s in
  Alcotest.(check bool) "children differ" true (s1 <> s2);
  Alcotest.(check bool) "child differs from parent" true (s1 <> s0 && s2 <> s0)

let test_split_n () =
  let s = stream () in
  let kids = Prng.Stream.split_n s 5 in
  Alcotest.(check int) "five children" 5 (Array.length kids);
  let firsts = Array.map Prng.Stream.bits64 kids in
  let distinct = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace distinct v ()) firsts;
  Alcotest.(check int) "distinct first outputs" 5 (Hashtbl.length distinct)

let test_int_bounds () =
  let s = stream () in
  for _ = 1 to 10000 do
    let v = Prng.Stream.int s 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Stream.int: bound <= 0")
    (fun () -> ignore (Prng.Stream.int s 0))

let test_int_uniform_chi2 () =
  let s = stream () in
  let counts = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let v = Prng.Stream.int s 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let p = Stats.Chi_square.test_uniform counts in
  Alcotest.(check bool) "uniform (p > 0.001)" true (p > 0.001)

let test_int_in () =
  let s = stream () in
  for _ = 1 to 1000 do
    let v = Prng.Stream.int_in s (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_float_range () =
  let s = stream () in
  for _ = 1 to 1000 do
    let v = Prng.Stream.float s 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let s = stream () in
  Alcotest.(check bool) "p=0 never" false (Prng.Stream.bernoulli s 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.Stream.bernoulli s 1.0)

let test_bernoulli_rate () =
  let s = stream () in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.Stream.bernoulli s 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 100_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let test_permutation_valid () =
  let s = stream () in
  let p = Prng.Stream.permutation s 100 in
  let seen = Array.make 100 false in
  Array.iter (fun v -> seen.(v) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_permutation_uniform () =
  (* All 6 permutations of 3 elements appear with equal frequency. *)
  let s = stream () in
  let counts = Hashtbl.create 6 in
  for _ = 1 to 60_000 do
    let p = Prng.Stream.permutation s 3 in
    let key = (100 * p.(0)) + (10 * p.(1)) + p.(2) in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all 6 permutations occur" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "balanced" true (abs (c - 10_000) < 600))
    counts

let test_sample_distinct () =
  let s = stream () in
  for _ = 1 to 100 do
    let a = Prng.Stream.sample_distinct s 50 ~k:10 in
    Alcotest.(check int) "k elements" 10 (Array.length a);
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < 50);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
        Hashtbl.add seen v ())
      a
  done;
  (* dense path *)
  let full = Prng.Stream.sample_distinct s 10 ~k:10 in
  let seen = Array.make 10 false in
  Array.iter (fun v -> seen.(v) <- true) full;
  Alcotest.(check bool) "k = n is a permutation" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "k > n" (Invalid_argument "Stream.sample_distinct")
    (fun () -> ignore (Prng.Stream.sample_distinct s 3 ~k:4))

let test_choose () =
  let s = stream () in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "element of array" true
      (Array.mem (Prng.Stream.choose s a) a)
  done

let test_dist_poisson () =
  let s = stream () in
  let acc = ref 0 in
  for _ = 1 to 20_000 do
    acc := !acc + Prng.Dist.poisson s 4.0
  done;
  let mean = float_of_int !acc /. 20_000.0 in
  Alcotest.(check bool) "mean near 4" true (abs_float (mean -. 4.0) < 0.15)

(* Knuth's method alone stops near 745: exp (-2000) underflows to 0, so
   the draw was capped there.  The pieced draw keeps the mean and the
   variance of Poisson(2000). *)
let test_dist_poisson_large () =
  let s = stream () in
  let draws = Array.init 2_000 (fun _ -> Prng.Dist.poisson s 2000.0) in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 draws) /. 2_000.0
  in
  let var =
    Array.fold_left
      (fun a x -> a +. ((float_of_int x -. mean) ** 2.0))
      0.0 draws
    /. 1_999.0
  in
  (* the mean's standard error is sqrt (2000 / 2000) = 1 *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f near 2000" mean)
    true
    (abs_float (mean -. 2000.0) < 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "variance %.0f near 2000" var)
    true
    (var > 1600.0 && var < 2400.0);
  Alcotest.check_raises "negative" (Invalid_argument "Dist.poisson: lambda < 0")
    (fun () -> ignore (Prng.Dist.poisson s (-1.0)));
  Alcotest.check_raises "infinite"
    (Invalid_argument "Dist.poisson: lambda not finite") (fun () ->
      ignore (Prng.Dist.poisson s Float.infinity))

let test_dist_zipf () =
  let s = stream () in
  let counts = Array.make 11 0 in
  let table = Prng.Dist.zipf_table ~n:10 ~s:1.0 in
  for _ = 1 to 50_000 do
    let r = Prng.Dist.zipf_draw s table in
    Alcotest.(check bool) "rank in [1,10]" true (r >= 1 && r <= 10);
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true
    (counts.(1) > counts.(2) && counts.(2) > counts.(5))

(* ---------- statistical quality of the raw generator ---------- *)

let test_monobit () =
  (* NIST-style frequency test: the number of set bits in 10^6 output bits
     should be within ~4 sigma of half. *)
  let g = Prng.Xoshiro256.of_seed 0xB17L in
  let words = 15_625 (* x 64 bits = 1e6 bits *) in
  let ones = ref 0 in
  for _ = 1 to words do
    let x = ref (Prng.Xoshiro256.next g) in
    while !x <> 0L do
      if Int64.logand !x 1L = 1L then incr ones;
      x := Int64.shift_right_logical !x 1
    done
  done;
  let n = words * 64 in
  let dev =
    abs_float (float_of_int !ones -. (float_of_int n /. 2.0))
    /. sqrt (float_of_int n /. 4.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "monobit deviation %.2f sigma" dev)
    true (dev < 4.0)

let test_runs () =
  (* Runs test on the low bit: the count of 01/10 transitions should be
     near half the sequence length. *)
  let g = Prng.Xoshiro256.of_seed 0x12345L in
  let n = 200_000 in
  let prev = ref (Int64.logand (Prng.Xoshiro256.next g) 1L) in
  let transitions = ref 0 in
  for _ = 2 to n do
    let b = Int64.logand (Prng.Xoshiro256.next g) 1L in
    if b <> !prev then incr transitions;
    prev := b
  done;
  let expected = float_of_int (n - 1) /. 2.0 in
  let dev =
    abs_float (float_of_int !transitions -. expected)
    /. sqrt (float_of_int (n - 1) /. 4.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "runs deviation %.2f sigma" dev)
    true (dev < 4.0)

let test_serial_correlation () =
  (* Lag-1 correlation of consecutive outputs mapped to [0,1). *)
  let s = Prng.Stream.of_seed 0x5E1AL in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.Stream.float s 1.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 2 do
    num := !num +. ((xs.(i) -. mean) *. (xs.(i + 1) -. mean))
  done;
  Array.iter (fun x -> den := !den +. ((x -. mean) ** 2.0)) xs;
  let rho = !num /. !den in
  Alcotest.(check bool)
    (Printf.sprintf "lag-1 correlation %.4f" rho)
    true
    (abs_float rho < 0.02)

let test_split_streams_uncorrelated () =
  (* Sibling streams must not track each other: correlate their outputs. *)
  let parent = Prng.Stream.of_seed 0xFA111L in
  let a = Prng.Stream.split parent and b = Prng.Stream.split parent in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.Stream.float a 1.0) in
  let ys = Array.init n (fun _ -> Prng.Stream.float b 1.0) in
  let mx = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let my = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    dx := !dx +. ((xs.(i) -. mx) ** 2.0);
    dy := !dy +. ((ys.(i) -. my) ** 2.0)
  done;
  let rho = !num /. sqrt (!dx *. !dy) in
  Alcotest.(check bool)
    (Printf.sprintf "sibling correlation %.4f" rho)
    true
    (abs_float rho < 0.02)

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Stream.int always in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let s = Prng.Stream.of_seed seed in
      let v = Prng.Stream.int s bound in
      v >= 0 && v < bound)

let qcheck_permutation_is_bijection =
  QCheck.Test.make ~name:"permutation is a bijection" ~count:200
    QCheck.(pair int64 (int_range 1 200))
    (fun (seed, n) ->
      let s = Prng.Stream.of_seed seed in
      let p = Prng.Stream.permutation s n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all Fun.id seen)

let qcheck_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let s = Prng.Stream.of_seed seed in
      let a = Array.of_list l in
      let b = Array.copy a in
      Prng.Stream.shuffle_in_place s b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let qcheck_sample_distinct_distinct =
  QCheck.Test.make ~name:"sample_distinct yields distinct in-range values"
    ~count:300
    QCheck.(triple int64 (int_range 1 500) (int_range 0 100))
    (fun (seed, n, kraw) ->
      let k = min kraw n in
      let s = Prng.Stream.of_seed seed in
      let a = Prng.Stream.sample_distinct s n ~k in
      let seen = Hashtbl.create 16 in
      Array.for_all
        (fun v ->
          let fresh = not (Hashtbl.mem seen v) in
          Hashtbl.add seen v ();
          fresh && v >= 0 && v < n)
        a)

(* The rejection loop of [Xoshiro256.below], restated over raw outputs. *)
let rec rejection_below g bound =
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (Prng.Xoshiro256.next g) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub b 1L) then
    rejection_below g bound
  else Int64.to_int v

(* [below] masks instead of dividing when the bound is 2^k.  From copied
   states it must return what the rejection loop returns and consume the
   same draws, for every power of two that is an OCaml int (k <= 61;
   1 lsl 62 is min_int, which [below] rejects). *)
let qcheck_below_power_of_two =
  QCheck.Test.make ~name:"below 2^k equals the rejection loop" ~count:50
    QCheck.int64
    (fun seed ->
      let g = Prng.Xoshiro256.of_seed seed in
      List.for_all
        (fun k ->
          let h = Prng.Xoshiro256.copy g in
          List.for_all
            (fun _ ->
              Prng.Xoshiro256.below g (1 lsl k) = rejection_below h (1 lsl k))
            [ 1; 2; 3; 4 ]
          && Prng.Xoshiro256.next g = Prng.Xoshiro256.next h)
        (List.init 62 Fun.id))

(* The table API draws what the cached [zipf] drew, from the same stream
   state, over several (n, s) pairs and seeds. *)
let qcheck_zipf_draw_matches_reference =
  QCheck.Test.make ~name:"zipf_draw equals the old zipf" ~count:50
    QCheck.(triple int64 (int_range 1 300) (float_range 0.1 3.0))
    (fun (seed, n, s) ->
      let table = Prng.Dist.zipf_table ~n ~s in
      let a = Prng.Stream.of_seed seed and b = Prng.Stream.of_seed seed in
      List.for_all
        (fun _ ->
          Prng.Dist.zipf_draw a table = Testutil.reference_zipf b ~n ~s)
        (List.init 64 Fun.id)
      && Prng.Stream.bits64 a = Prng.Stream.bits64 b)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "mix collision-free sample" `Quick
            test_splitmix_mix_bijective_sample;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "nonzero output" `Quick test_xoshiro_known_nonzero;
          Alcotest.test_case "copy independence" `Quick
            test_xoshiro_copy_independent;
          Alcotest.test_case "zero state rejected" `Quick
            test_xoshiro_zero_state_rejected;
          Alcotest.test_case "known answers" `Quick test_xoshiro_known_answers;
        ] );
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_stream_determinism;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "split_n" `Quick test_split_n;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_int_uniform_chi2;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "permutation uniform" `Slow test_permutation_uniform;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "known answers" `Quick test_stream_known_answers;
          Alcotest.test_case "draws allocation-free" `Quick
            test_draws_allocation_free;
          Alcotest.test_case "k-ary sampler allocation" `Quick
            test_kary_sampler_allocation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "poisson" `Slow test_dist_poisson;
          Alcotest.test_case "zipf" `Slow test_dist_zipf;
          Alcotest.test_case "poisson at mean 2000" `Slow
            test_dist_poisson_large;
        ] );
      ( "quality",
        [
          Alcotest.test_case "monobit frequency" `Slow test_monobit;
          Alcotest.test_case "runs" `Slow test_runs;
          Alcotest.test_case "serial correlation" `Slow test_serial_correlation;
          Alcotest.test_case "split streams uncorrelated" `Slow
            test_split_streams_uncorrelated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_int_in_range;
            qcheck_permutation_is_bijection;
            qcheck_shuffle_preserves_multiset;
            qcheck_sample_distinct_distinct;
            qcheck_below_power_of_two;
            qcheck_zipf_draw_matches_reference;
          ] );
    ]

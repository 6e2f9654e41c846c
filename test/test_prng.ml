(* Tests for the PRNG substrate: determinism, splitting, distribution
   sanity, and the exactness properties the samplers rely on. *)

let stream () = Prng.Stream.of_seed 12345L

(* Word [i] of a buffer of [width]-byte little-endian words, as the bulk
   kernels store them. *)
let get_word width b i =
  if width = 2 then Bytes.get_uint16_le b (2 * i)
  else Int32.to_int (Bytes.get_int32_le b (4 * i))

let set_word width b i x =
  if width = 2 then Bytes.set_uint16_le b (2 * i) x
  else Bytes.set_int32_le b (4 * i) (Int32.of_int x)

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

(* Minor-heap words per call of [f], over [calls] calls. *)
let words_per_draw ?(calls = 100_000) f =
  let s = stream () in
  f s;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f s
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_draws_allocation_free () =
  let check ?calls name f =
    let w = words_per_draw ?calls f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.3f words/draw" name w) true
      (w < 0.01)
  in
  check "int" (fun s -> ignore (Prng.Stream.int s 1000));
  check "int with rejection" (fun s -> ignore (Prng.Stream.int s (3 lsl 60)));
  check "bool" (fun s -> ignore (Prng.Stream.bool s));
  check "bits53" (fun s -> ignore (Prng.Stream.bits53 s));
  check "bernoulli" (fun s -> ignore (Prng.Stream.bernoulli s 0.3));
  (* the distributions do their float arithmetic on [bits53] ints *)
  let zipf = Prng.Dist.zipf_table ~n:1000 ~s:1.1 in
  check "zipf_draw" (fun s -> ignore (Prng.Dist.zipf_draw s zipf));
  check "poisson 1" (fun s -> ignore (Prng.Dist.poisson s 1.0));
  check "poisson 7" (fun s -> ignore (Prng.Dist.poisson s 7.0));
  check ~calls:100 "poisson 2000 (four pieces)" (fun s ->
      ignore (Prng.Dist.poisson s 2000.0));
  (* A float returned across a module boundary is boxed (2 words); the draw
     itself allocates nothing. *)
  let w = words_per_draw (fun s -> ignore (Prng.Stream.float s 1.0)) in
  Alcotest.(check bool) (Printf.sprintf "float: %.3f words/draw" w) true
    (w < 2.01);
  (* The bulk kernels: 0 words per call of 64 draws, at both widths.  A
     table of 1000 entries takes the division path and, rarely, rejects;
     the rejection path itself is pinned in "fill_words rejection". *)
  let b = Bytes.make (4 * 64) '\000' in
  let table = Array.init 1000 (fun i -> 65535 - i) in
  List.iter
    (fun width ->
      check (Printf.sprintf "fill_words, width %d" width) (fun s ->
          Prng.Stream.fill_words s ~width table b ~pos:0 ~len:64);
      check (Printf.sprintf "fill_words 2^k, width %d" width) (fun s ->
          Prng.Stream.fill_words s ~width (Array.sub table 0 512) b ~pos:0
            ~len:64);
      check (Printf.sprintf "shuffle_tail_words, width %d" width) (fun s ->
          Prng.Stream.shuffle_tail_words s ~width b ~pos:0 ~len:64 ~count:63))
    [ 2; 4 ]

let test_kary_sampler_allocation () =
  (* The robust DHT's reshuffle shape: only the result arrays and the
     major-heap planes are allocated, no per-draw garbage. *)
  let cube = Topology.Kary_hypercube.create ~k:4 ~d:6 in
  let w0 = Gc.minor_words () in
  ignore (Core.Rapid_kary.run ~c:6.8 ~rng:(stream ()) cube);
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" w) true (w < 1e6)

let test_kernel_arguments () =
  let s = stream () and b = Bytes.create (4 * 8) in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  let fill = "Xoshiro256.fill_words: range out of bounds"
  and shuffle = "Xoshiro256.shuffle_tail_words: range out of bounds"
  and count = "Xoshiro256.shuffle_tail_words: count outside [0, len]" in
  let fill_words ?(table = [| 0; 1; 2; 3; 4 |]) width pos len () =
    Prng.Stream.fill_words s ~width table b ~pos ~len
  and shuffle_words width pos len count () =
    Prng.Stream.shuffle_tail_words s ~width b ~pos ~len ~count
  in
  List.iter
    (fun width ->
      raises "Xoshiro256.fill_words: width not 2 or 4" (fill_words width 0 1);
      raises "Xoshiro256.shuffle_tail_words: width not 2 or 4"
        (shuffle_words width 0 2 1))
    [ 0; 1; 3; 8; -4 ];
  raises "Xoshiro256.fill_words: empty table" (fill_words ~table:[||] 2 0 1);
  let wide = "Xoshiro256.fill_words: table entry outside [0, 2^16)" in
  raises wide (fill_words ~table:[| 0; 65536 |] 2 0 1);
  raises wide (fill_words ~table:[| -1 |] 2 0 1);
  (* 65536 fits a 4-byte word; 2^31 would turn negative on the way back. *)
  fill_words ~table:[| 65536 |] 4 0 1 ();
  Alcotest.(check int) "65536 at width 4" 65536
    (Int32.to_int (Bytes.get_int32_le b 0));
  let wide = "Xoshiro256.fill_words: table entry outside [0, 2^31)" in
  raises wide (fill_words ~table:[| 1 lsl 31 |] 4 0 1);
  raises wide (fill_words ~table:[| 3; -1 |] 4 0 1);
  (* b holds 16 two-byte words or 8 four-byte words. *)
  List.iter
    (fun (width, words) ->
      raises fill (fill_words width (-1) 1);
      raises fill (fill_words width 0 (-1));
      raises fill (fill_words width 4 (words - 3));
      raises fill (fill_words width 0 (words + 1));
      raises fill (fill_words width max_int 1);
      raises shuffle (shuffle_words width (-1) 2 1);
      raises shuffle (shuffle_words width 0 (-1) 0);
      raises shuffle (shuffle_words width (words - 1) 2 1);
      raises count (shuffle_words width 0 2 (-1));
      raises count (shuffle_words width 0 2 3))
    [ (2, 16); (4, 8) ];
  (* A rejected call consumes no draw; the one accepted fill consumed one. *)
  let r = stream () in
  ignore (Prng.Stream.bits64 r);
  Alcotest.(check int64) "stream untouched" (Prng.Stream.bits64 r)
    (Prng.Stream.bits64 s)

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

(* Seeds whose stream's first uniform lies in the top 2^-16 of [0, 1),
   so a Zipf draw from it lands within that fraction of the total weight:
   the last guide buckets, and the run of tied cumulative weights of a
   saturated table.  Found by scanning seeds: about one in 2^16
   qualifies. *)
let near_total_seeds =
  lazy
    (let threshold = (1 lsl 53) - (1 lsl 37) in
     let rec scan seed found =
       if List.length found = 8 then List.rev found
       else if Prng.Stream.bits53 (Prng.Stream.of_seed seed) >= threshold then
         scan (Int64.succ seed) (seed :: found)
       else scan (Int64.succ seed) found
     in
     scan 0L [])

(* The guide table draws what the binary search drew, from the same
   stream state: over random (n, s) pairs and seeds, at n = 1, and on a
   saturating table (n = 2^20 - 1, s = 3: past rank ~2·10^5 each weight
   is below half an ulp of the sum, so the cumulative weights tie), for
   64 draws from the seed and one from each near-total seed. *)
let qcheck_zipf_draw_matches_reference =
  QCheck.Test.make ~name:"zipf_draw equals the old zipf" ~count:50
    QCheck.(
      frequency
        [
          (8, triple int64 (int_range 1 300) (float_range 0.1 3.0));
          (1, triple int64 (always 1) (float_range 0.1 3.0));
          (1, triple int64 (always ((1 lsl 20) - 1)) (always 3.0));
        ])
    (fun (seed, n, s) ->
      let table = Prng.Dist.zipf_table ~n ~s in
      let cum = Testutil.reference_zipf_table ~n ~s in
      let agree a b =
        Prng.Dist.zipf_draw a table = Testutil.reference_zipf_draw b cum
      in
      let a = Prng.Stream.of_seed seed and b = Prng.Stream.of_seed seed in
      List.for_all (fun _ -> agree a b) (List.init 64 Fun.id)
      && Prng.Stream.bits64 a = Prng.Stream.bits64 b
      && List.for_all
           (fun seed ->
             agree (Prng.Stream.of_seed seed) (Prng.Stream.of_seed seed))
           (Lazy.force near_total_seeds))

(* Knuth's loop without the closure and the boxed floats draws what the
   closure loop drew, and leaves the stream where the loop left it: at
   lambda = 0 (one uniform, always 0), at small rates, at 500 (one piece,
   on the boundary) and at 2000 (four pieces). *)
let test_poisson_matches_reference () =
  List.iter
    (fun lambda ->
      let a = stream () and b = stream () in
      let draws = if lambda > 500.0 then 50 else 500 in
      for i = 1 to draws do
        Alcotest.(check int)
          (Printf.sprintf "lambda %g, draw %d" lambda i)
          (Testutil.reference_poisson b lambda)
          (Prng.Dist.poisson a lambda)
      done;
      Alcotest.(check int64)
        (Printf.sprintf "lambda %g: same stream position" lambda)
        (Prng.Stream.bits64 b) (Prng.Stream.bits64 a))
    [ 0.0; 0.25; 1.0; 7.0; 500.0; 2000.0 ]

(* xoshiro256**'s next output is rotl(s1·5, 7)·9, so s1 =
   rotr(o·9⁻¹, 7)·5⁻¹ mod 2^64 makes it any chosen o.  Inverses of odd
   numbers mod 2^64 by Newton's iteration, each step doubling the correct
   low bits (x·x = 1 mod 8 gives the first 3). *)
let inverse64 x =
  let y = ref x in
  for _ = 1 to 5 do
    y := Int64.mul !y (Int64.sub 2L (Int64.mul x !y))
  done;
  !y

let state_with_output o =
  let rotr x k =
    Int64.(logor (shift_right_logical x k) (shift_left x (64 - k)))
  in
  let s1 = Int64.mul (rotr (Int64.mul o (inverse64 9L)) 7) (inverse64 5L) in
  Prng.Xoshiro256.of_state 0x9E3779B97F4A7C15L s1 42L 7L

(* Bounds near 2^61 and 3·2^60 reject a quarter of the draws, but no table
   is that long, so the fill's rejection branch is reached from a crafted
   state instead: a first output whose top 63 bits are 2^63 - 1 is the
   last value of the incomplete block for every bound that is not a power
   of two, so a table of 3 rejects it and takes the next draw. *)
let test_fill_words_rejection () =
  List.iter
    (fun o ->
      let g = state_with_output o in
      let probe = Prng.Xoshiro256.copy g in
      Alcotest.(check int64) "crafted output" o (Prng.Xoshiro256.next probe);
      List.iter
        (fun width ->
          let table = [| 11; 22; 33 |] in
          let k = Prng.Xoshiro256.copy g and h = Prng.Xoshiro256.copy g in
          let b = Bytes.make (width * 6) '\255' in
          Prng.Xoshiro256.fill_words k ~width table b ~pos:1 ~len:4;
          (* The per-call loop, and the same loop with the first output
             skipped: both must give the kernel's words and final state. *)
          let skip = Prng.Xoshiro256.copy g in
          ignore (Prng.Xoshiro256.next skip);
          let words =
            List.init 4 (fun i ->
                if width = 2 then Bytes.get_uint16_le b (2 * (i + 1))
                else Int32.to_int (Bytes.get_int32_le b (4 * (i + 1))))
          in
          let loop = List.init 4 (fun _ -> table.(rejection_below h 3)) in
          let skipped =
            List.init 4 (fun _ -> table.(Prng.Xoshiro256.below skip 3))
          in
          let label = Printf.sprintf "width %d" width in
          Alcotest.(check (list int)) (label ^ ": the loop's words") loop words;
          Alcotest.(check (list int))
            (label ^ ": first draw rejected") skipped words;
          Alcotest.(check int64) (label ^ ": same final state")
            (Prng.Xoshiro256.next h)
            (Prng.Xoshiro256.next (Prng.Xoshiro256.copy k));
          Alcotest.(check int64) (label ^ ": one draw skipped")
            (Prng.Xoshiro256.next skip) (Prng.Xoshiro256.next k);
          Alcotest.(check bool) (label ^ ": margins untouched") true
            (Bytes.sub b 0 width = Bytes.make width '\255'
            && Bytes.sub b (5 * width) width = Bytes.make width '\255'))
        [ 2; 4 ])
    [ -1L; -2L ]

(* A plane of [width]-byte words, distinct (mod 2^16), with [pos] words of
   margin on the left and 3 on the right, so a write outside the range
   shows. *)
let kernel_plane ~width ~pos ~len =
  let b = Bytes.create (width * (pos + len + 3)) in
  for w = 0 to pos + len + 2 do
    set_word width b w (((w * 7919) + 1) land 0xffff)
  done;
  b

let kernel_width = QCheck.oneofl [ 2; 4 ]

(* A table of 1 to 1000 entries (every length up to 64, and powers of two
   besides), each entry below 2^16 at width 2 and below 2^31 at width 4. *)
let kernel_table =
  QCheck.(
    pair kernel_width
      (pair
         (oneof
            [
              int_range 1 64;
              int_range 1 1000;
              map (fun k -> 1 lsl k) (int_range 0 9);
            ])
         int64))
  |> QCheck.map (fun (width, (len, seed)) ->
         let g = Prng.Stream.of_seed seed in
         let top = if width = 2 then 1 lsl 16 else 1 lsl 31 in
         (width, Array.init len (fun _ -> Prng.Stream.int g top)))

let qcheck_fill_words_matches_int =
  QCheck.Test.make ~name:"fill_words equals int via the table"
    ~count:300
    QCheck.(quad int64 kernel_table (int_range 0 5) (int_range 0 40))
    (fun (seed, (width, table), pos, len) ->
      let a = Prng.Stream.of_seed seed and r = Prng.Stream.of_seed seed in
      let ba = kernel_plane ~width ~pos ~len
      and br = kernel_plane ~width ~pos ~len in
      Prng.Stream.fill_words a ~width table ba ~pos ~len;
      for w = pos to pos + len - 1 do
        set_word width br w table.(Prng.Stream.int r (Array.length table))
      done;
      Bytes.equal ba br && Prng.Stream.bits64 a = Prng.Stream.bits64 r)

(* count is 0, len - 1, len or anything in between: a percentage of len,
   or -1 for len - 1. *)
let kernel_count =
  QCheck.(
    pair (int_range 0 40)
      (oneof [ always 0; always (-1); always 100; int_range 0 100 ]))
  |> QCheck.map (fun (len, p) ->
         (len, if p < 0 then max 0 (len - 1) else len * p / 100))

let qcheck_shuffle_tail_matches_loop =
  QCheck.Test.make ~name:"shuffle_tail_words equals the loop" ~count:300
    QCheck.(quad int64 kernel_width (int_range 0 5) kernel_count)
    (fun (seed, width, pos, (len, count)) ->
      let a = Prng.Stream.of_seed seed and r = Prng.Stream.of_seed seed in
      let ba = kernel_plane ~width ~pos ~len
      and br = kernel_plane ~width ~pos ~len in
      Prng.Stream.shuffle_tail_words a ~width ba ~pos ~len ~count;
      for x = 0 to count - 1 do
        let p = pos + Prng.Stream.int r (len - x)
        and last = pos + len - 1 - x in
        let v = get_word width br p in
        set_word width br p (get_word width br last);
        set_word width br last v
      done;
      Bytes.equal ba br && Prng.Stream.bits64 a = Prng.Stream.bits64 r)

(* count = len - 1 is [shuffle_in_place]: same order, same draws. *)
let qcheck_shuffle_tail_is_shuffle =
  QCheck.Test.make ~name:"shuffle_tail_words is shuffle_in_place" ~count:200
    QCheck.(triple int64 kernel_width (int_range 0 60))
    (fun (seed, width, len) ->
      let a = Prng.Stream.of_seed seed and r = Prng.Stream.of_seed seed in
      let b = kernel_plane ~width ~pos:0 ~len in
      let arr = Array.init len (get_word width b) in
      Prng.Stream.shuffle_tail_words a ~width b ~pos:0 ~len
        ~count:(max 0 (len - 1));
      Prng.Stream.shuffle_in_place r arr;
      Array.init len (get_word width b) = arr
      && Prng.Stream.bits64 a = Prng.Stream.bits64 r)

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
          Alcotest.test_case "kernel arguments" `Quick test_kernel_arguments;
          Alcotest.test_case "fill_words rejection" `Quick
            test_fill_words_rejection;
        ] );
      ( "dist",
        [
          Alcotest.test_case "poisson" `Slow test_dist_poisson;
          Alcotest.test_case "zipf" `Slow test_dist_zipf;
          Alcotest.test_case "poisson at mean 2000" `Slow
            test_dist_poisson_large;
          Alcotest.test_case "poisson equals Knuth's loop" `Quick
            test_poisson_matches_reference;
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
            qcheck_fill_words_matches_int;
            qcheck_shuffle_tail_matches_loop;
            qcheck_shuffle_tail_is_shuffle;
          ] );
    ]

(* Tests for the statistics toolkit. *)

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%g vs %g)" name a b)
    true
    (abs_float (a -. b) <= tol)

(* ---------- Moments ---------- *)

let test_moments_basic () =
  let m = Stats.Moments.create () in
  List.iter (Stats.Moments.add m) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  feq "mean" (Stats.Moments.mean m) 5.0

let test_moments_empty () =
  let m = Stats.Moments.create () in
  feq "mean of empty" (Stats.Moments.mean m) 0.0

(* ---------- Distance ---------- *)

let test_tv_basics () =
  feq "identical" (Stats.Distance.tv_from_uniform [| 0.5; 0.5 |]) 0.0;
  feq "point mass" (Stats.Distance.tv_from_uniform [| 1.0; 0.0 |]) 0.5;
  feq "uniform distance"
    (Stats.Distance.tv_from_uniform [| 0.75; 0.25 |])
    0.25

let test_tv_counts () =
  feq "counts vs uniform" (Stats.Distance.tv_counts_uniform [| 3; 1 |]) 0.25;
  feq "all zero" (Stats.Distance.tv_counts_uniform [| 0; 0; 0 |]) 0.0

let test_noise_floor_monotone () =
  let f1 = Stats.Distance.expected_tv_noise_floor ~samples:1000 ~cells:100 in
  let f2 = Stats.Distance.expected_tv_noise_floor ~samples:100_000 ~cells:100 in
  Alcotest.(check bool) "more samples, lower floor" true (f2 < f1)

(* ---------- Chi-square ---------- *)

let test_gammp_known () =
  (* P(1, x) = 1 - e^{-x} *)
  feq ~tol:1e-9 "P(1,1)" (Stats.Chi_square.gammp ~a:1.0 ~x:1.0) (1.0 -. exp (-1.0));
  feq ~tol:1e-9 "P(1,5)" (Stats.Chi_square.gammp ~a:1.0 ~x:5.0) (1.0 -. exp (-5.0))

let test_chi2_cdf_known () =
  (* chi2 with 2 df: CDF(x) = 1 - e^{-x/2} *)
  feq ~tol:1e-9 "df=2 at 2" (Stats.Chi_square.cdf ~df:2 2.0) (1.0 -. exp (-1.0));
  (* median of chi2 with 1 df is ~0.4549 *)
  feq ~tol:1e-3 "df=1 median" (Stats.Chi_square.cdf ~df:1 0.4549) 0.5

let test_chi2_statistic () =
  feq "perfect fit" (Stats.Chi_square.statistic_uniform [| 10; 10; 10 |]) 0.0;
  feq "simple case" (Stats.Chi_square.statistic_uniform [| 12; 8 |]) 0.8

let test_chi2_uniform_accepts_uniform () =
  let rng = Prng.Stream.of_seed 3L in
  let counts = Array.make 20 0 in
  for _ = 1 to 100_000 do
    let v = Prng.Stream.int rng 20 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "p-value not tiny" true
    (Stats.Chi_square.test_uniform counts > 0.001)

let test_chi2_uniform_rejects_biased () =
  let counts = Array.init 20 (fun i -> if i = 0 then 10_000 else 4_000) in
  Alcotest.(check bool) "biased rejected" true
    (Stats.Chi_square.test_uniform counts < 1e-6)

(* ---------- Entropy ---------- *)

let test_entropy () =
  feq "fair coin" (Stats.Entropy.of_probabilities [| 0.5; 0.5 |]) 1.0;
  feq "certain" (Stats.Entropy.of_probabilities [| 1.0; 0.0 |]) 0.0;
  feq "uniform counts" (Stats.Entropy.of_counts [| 5; 5; 5; 5 |]) 2.0;
  feq "max entropy" (Stats.Entropy.max_entropy 8) 3.0;
  feq "normalized uniform" (Stats.Entropy.normalized_of_counts [| 7; 7 |]) 1.0;
  Alcotest.(check bool) "normalized skewed < 1" true
    (Stats.Entropy.normalized_of_counts [| 100; 1 |] < 0.5)

(* ---------- Fit ---------- *)

let test_fit_linear_exact () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let l = Stats.Fit.linear pts in
  feq ~tol:1e-9 "slope" l.Stats.Fit.slope 3.0;
  feq ~tol:1e-9 "intercept" l.Stats.Fit.intercept 1.0;
  feq ~tol:1e-9 "r2" l.Stats.Fit.r2 1.0

let test_fit_classify () =
  let log2 x = Float.log x /. Float.log 2.0 in
  let ns = Array.init 10 (fun i -> float_of_int (1 lsl (i + 4))) in
  let log_series = Array.map (fun n -> (n, 2.0 *. log2 n)) ns in
  let loglog_series = Array.map (fun n -> (n, 3.0 *. log2 (log2 n))) ns in
  let const_series = Array.map (fun n -> (n, 5.0)) ns in
  Alcotest.(check string) "log growth" "O(log n)"
    (Stats.Fit.growth_to_string (Stats.Fit.classify_growth log_series));
  Alcotest.(check string) "loglog growth" "O(log log n)"
    (Stats.Fit.growth_to_string (Stats.Fit.classify_growth loglog_series));
  Alcotest.(check string) "constant" "O(1)"
    (Stats.Fit.growth_to_string (Stats.Fit.classify_growth const_series))

(* ---------- Table ---------- *)

let test_table_renders () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ "1"; "2" ];
  Stats.Table.add_row t [ "3"; "four" ];
  Stats.Table.note t "a note";
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Stats.Table.pp fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "title present" true
    (Testutil.contains s "demo");
  Alcotest.(check bool) "cell present" true (Testutil.contains s "four");
  Alcotest.(check bool) "note present" true (Testutil.contains s "a note")

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Stats.Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Stats.Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "pct" "50.0%" (Stats.Table.cell_pct 0.5);
  Alcotest.(check string) "bool" "yes" (Stats.Table.cell_bool true)

let test_table_too_many_cells () =
  let t = Stats.Table.create ~title:"x" ~columns:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than columns") (fun () ->
      Stats.Table.add_row t [ "1"; "2" ])

(* ---------- properties ---------- *)

let qcheck_tv_bounds =
  QCheck.Test.make ~name:"TV distance in [0,1]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 10.0))
    (fun weights ->
      let total = List.fold_left ( +. ) 0.0 weights in
      QCheck.assume (total > 0.0);
      let p = Array.of_list (List.map (fun w -> w /. total) weights) in
      let tv = Stats.Distance.tv_from_uniform p in
      tv >= -1e-9 && tv <= 1.0 +. 1e-9)

let qcheck_entropy_bounds =
  QCheck.Test.make ~name:"entropy within [0, log2 n]" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 50) (int_range 0 1000))
    (fun counts ->
      let c = Array.of_list counts in
      QCheck.assume (Array.exists (fun x -> x > 0) c);
      let e = Stats.Entropy.of_counts c in
      e >= -1e-9 && e <= Stats.Entropy.max_entropy (Array.length c) +. 1e-9)

let qcheck_moments_match_naive =
  QCheck.Test.make ~name:"online moments equal naive computation" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 100) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.Moments.create () in
      List.iter (Stats.Moments.add m) xs;
      let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Stats.Moments.mean m -. mean) < 1e-6)

(* ---------- Log_histogram ---------- *)

let test_log_histogram_small_exact () =
  (* below sub_buckets every value has its own cell: quantiles are exact *)
  let h = Stats.Log_histogram.create () in
  for v = 0 to 31 do
    Stats.Log_histogram.add h v
  done;
  Alcotest.(check int) "total" 32 (Stats.Log_histogram.total h);
  Alcotest.(check int) "median" 15 (Stats.Log_histogram.percentile h 0.5);
  Alcotest.(check int) "p100" 31 (Stats.Log_histogram.percentile h 1.0);
  (* below 2 * sub_buckets every cell is single-valued; above, cells
     widen: 100 lives in [100, 101] *)
  let h = Stats.Log_histogram.create () in
  List.iter (Stats.Log_histogram.add h) [ 0; 1; 1; 5; 17; 31; 32; 63; 63; 12 ];
  Alcotest.(check bool) "single-valued cells below 2*sub_buckets" true
    (List.for_all (fun (lo, hi, _) -> lo = hi) (Stats.Log_histogram.buckets h));
  let h = Stats.Log_histogram.create () in
  Stats.Log_histogram.add_many h 100 4;
  Alcotest.(check (list (triple int int int))) "100 in [100, 101]"
    [ (100, 101, 4) ]
    (Stats.Log_histogram.buckets h)

let test_log_histogram_relative_error () =
  (* one distinct value: every quantile is capped at the largest value v *)
  List.iter
    (fun v ->
      let h = Stats.Log_histogram.create () in
      Stats.Log_histogram.add_many h v 10;
      Alcotest.(check int)
        (Printf.sprintf "p50 of constant %d" v)
        v
        (Stats.Log_histogram.percentile h 0.5);
      (* and the cell containing v is never wider than v / 32 + 1 *)
      let lo, hi, _ =
        List.find
          (fun (lo, hi, _) -> lo <= v && v <= hi)
          (Stats.Log_histogram.buckets h)
      in
      Alcotest.(check bool)
        (Printf.sprintf "cell width at %d" v)
        true
        (hi - lo <= (v / Stats.Log_histogram.sub_buckets) + 1))
    [ 1; 31; 32; 33; 100; 1_000; 65_535; 1_000_000; 123_456_789 ]

let test_log_histogram_guards () =
  let h = Stats.Log_histogram.create () in
  Alcotest.check_raises "negative value"
    (Invalid_argument "Log_histogram.add: negative value") (fun () ->
      Stats.Log_histogram.add h (-1));
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Log_histogram.percentile: empty histogram") (fun () ->
      ignore (Stats.Log_histogram.percentile h 0.5));
  Stats.Log_histogram.add h 7;
  Alcotest.check_raises "p above 1"
    (Invalid_argument "Log_histogram.percentile: p outside [0, 1]") (fun () ->
      ignore (Stats.Log_histogram.percentile h 1.5));
  Alcotest.check_raises "p below 0"
    (Invalid_argument "Log_histogram.percentile: p outside [0, 1]") (fun () ->
      ignore (Stats.Log_histogram.percentile h (-0.1)));
  Alcotest.check_raises "p nan"
    (Invalid_argument "Log_histogram.percentile: p outside [0, 1]") (fun () ->
      ignore (Stats.Log_histogram.percentile h Float.nan))

let test_log_histogram_percentile_edges () =
  (* p = 0 selects the first observation, never an empty cell 0 (whose
     upper bound 0 made the old code report 0 for any sample). *)
  let h = Stats.Log_histogram.create () in
  Stats.Log_histogram.add h 10;
  Stats.Log_histogram.add h 500;
  Alcotest.(check int) "p0 = min cell" 10 (Stats.Log_histogram.percentile h 0.0);
  Alcotest.(check int) "p1 = max" 500 (Stats.Log_histogram.percentile h 1.0);
  (* single bucket: every p collapses to the one value *)
  let h = Stats.Log_histogram.create () in
  Stats.Log_histogram.add_many h 77 9;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "constant sample, p=%g" p)
        77
        (Stats.Log_histogram.percentile h p))
    [ 0.0; 0.5; 0.999; 1.0 ];
  (* all mass in the last (largest) cell: the accumulator loop must
     examine the final cell rather than returning n-1 blindly *)
  let h = Stats.Log_histogram.create () in
  Stats.Log_histogram.add_many h 123_456_789 5;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "all-mass-in-last-cell, p=%g" p)
        123_456_789
        (Stats.Log_histogram.percentile h p))
    [ 0.0; 0.5; 0.999; 1.0 ]

let qcheck_log_histogram_percentile_props =
  QCheck.Test.make
    ~name:"log-histogram percentiles are bounded by the sample and monotone"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 10_000_000))
    (fun sample ->
      let h = Stats.Log_histogram.create () in
      List.iter (Stats.Log_histogram.add h) sample;
      let lo = List.fold_left min max_int sample
      and hi = List.fold_left max 0 sample in
      let ps = [ 0.0; 0.25; 0.5; 0.999; 1.0 ] in
      let qs = List.map (Stats.Log_histogram.percentile h) ps in
      List.for_all (fun q -> q >= lo && q <= hi) qs
      && List.for_all2 ( <= ) qs (List.tl qs @ [ max_int ]))

(* ---------- Float_text ---------- *)

let test_float_text_known () =
  List.iter
    (fun (f, s) ->
      Alcotest.(check string) (Printf.sprintf "repr %h" f) s
        (Stats.Float_text.json_repr f))
    [
      (0.0, "0.0");
      (-0.0, "-0.0");
      (3.0, "3.0");
      (0.1, "0.1");
      (1e22, "1e+22");
      (Float.nan, "nan");
      (Float.infinity, "inf");
      (Float.neg_infinity, "-inf");
    ]

let qcheck_float_text_roundtrip =
  QCheck.Test.make ~name:"Float_text reprs parse back bit-for-bit" ~count:2000
    QCheck.(int64)
    (fun bits ->
      let f = Int64.float_of_bits bits in
      QCheck.assume (not (Float.is_nan f));
      Int64.bits_of_float (float_of_string (Stats.Float_text.repr f)) = bits
      && Int64.bits_of_float (float_of_string (Stats.Float_text.json_repr f))
         = bits)

(* The satellite property: merging per-shard histograms is exactly the
   sequential accumulation, for any assignment of observations to shards. *)
let qcheck_log_histogram_shard_merge =
  QCheck.Test.make ~name:"log-histogram shard merge = sequential accumulation"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (pair (int_range 0 1_000_000) (int_range 0 3)))
    (fun obs ->
      let shards = Array.init 4 (fun _ -> Stats.Log_histogram.create ()) in
      let whole = Stats.Log_histogram.create () in
      List.iter
        (fun (v, s) ->
          Stats.Log_histogram.add whole v;
          Stats.Log_histogram.add shards.(s) v)
        obs;
      let merged =
        Array.fold_left Stats.Log_histogram.merge
          (Stats.Log_histogram.create ())
          shards
      in
      Stats.Log_histogram.equal whole merged
      && Stats.Log_histogram.total whole = Stats.Log_histogram.total merged
      && (Stats.Log_histogram.total whole = 0
         || Stats.Log_histogram.percentile whole 0.99
            = Stats.Log_histogram.percentile merged 0.99))

(* Associativity: shards may be folded in any grouping, so
   merge (merge a b) c must equal merge a (merge b c), exactly. *)
let qcheck_log_histogram_merge_associative =
  QCheck.Test.make ~name:"log-histogram merge is associative" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 50) (int_range 0 1_000_000))
        (list_of_size (Gen.int_range 0 50) (int_range 0 1_000_000))
        (list_of_size (Gen.int_range 0 50) (int_range 0 1_000_000)))
    (fun (xs, ys, zs) ->
      let fill vs =
        let h = Stats.Log_histogram.create () in
        List.iter (Stats.Log_histogram.add h) vs;
        h
      in
      let a = fill xs and b = fill ys and c = fill zs in
      Stats.Log_histogram.equal
        (Stats.Log_histogram.merge (Stats.Log_histogram.merge a b) c)
        (Stats.Log_histogram.merge a (Stats.Log_histogram.merge b c)))

let () =
  Alcotest.run "stats"
    [
      ( "moments",
        [
          Alcotest.test_case "basic" `Quick test_moments_basic;
          Alcotest.test_case "empty" `Quick test_moments_empty;
        ] );
      ( "log-histogram",
        [
          Alcotest.test_case "small values exact" `Quick
            test_log_histogram_small_exact;
          Alcotest.test_case "bounded relative error" `Quick
            test_log_histogram_relative_error;
          Alcotest.test_case "guards" `Quick test_log_histogram_guards;
          Alcotest.test_case "percentile edges" `Quick
            test_log_histogram_percentile_edges;
        ] );
      ( "float-text",
        [ Alcotest.test_case "known reprs" `Quick test_float_text_known ] );
      ( "distance",
        [
          Alcotest.test_case "tv basics" `Quick test_tv_basics;
          Alcotest.test_case "tv counts" `Quick test_tv_counts;
          Alcotest.test_case "noise floor" `Quick test_noise_floor_monotone;
        ] );
      ( "chi-square",
        [
          Alcotest.test_case "gammp" `Quick test_gammp_known;
          Alcotest.test_case "cdf" `Quick test_chi2_cdf_known;
          Alcotest.test_case "statistic" `Quick test_chi2_statistic;
          Alcotest.test_case "accepts uniform" `Slow test_chi2_uniform_accepts_uniform;
          Alcotest.test_case "rejects biased" `Quick test_chi2_uniform_rejects_biased;
        ] );
      ("entropy", [ Alcotest.test_case "entropy" `Quick test_entropy ]);
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "classify growth" `Quick test_fit_classify;
        ] );
      ( "summary/table",
        [
          Alcotest.test_case "table renders" `Quick test_table_renders;
          Alcotest.test_case "table cells" `Quick test_table_cells;
          Alcotest.test_case "table guards" `Quick test_table_too_many_cells;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_tv_bounds; qcheck_entropy_bounds; qcheck_moments_match_naive;
            qcheck_log_histogram_shard_merge;
            qcheck_log_histogram_percentile_props;
            qcheck_float_text_roundtrip;
            qcheck_log_histogram_merge_associative;
          ] );
    ]

(* Wall-clock micro-benchmarks (Bechamel): one Test.make per experiment
   driver, at small sizes.  These measure the cost of the *simulator*, not
   any claim of the paper; they exist to keep the harness's own performance
   visible. *)

open Bechamel
open Toolkit

let test_rapid_hgraph =
  Test.make ~name:"rapid-hgraph n=512"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 1L in
         let g = Topology.Hgraph.random (Prng.Stream.split s) ~n:512 ~d:8 in
         ignore (Core.Rapid_hgraph.run ~rng:(Prng.Stream.split s) g)))

let test_plain_hgraph =
  Test.make ~name:"plain-walks n=512"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 2L in
         let g = Topology.Hgraph.random (Prng.Stream.split s) ~n:512 ~d:8 in
         ignore (Core.Rapid_hgraph.run_plain ~k:4 ~rng:(Prng.Stream.split s) g)))

let test_rapid_hypercube =
  Test.make ~name:"rapid-hypercube d=9"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 3L in
         let cube = Topology.Hypercube.create 9 in
         ignore (Core.Rapid_hypercube.run ~rng:s cube)))

let test_churn_epoch =
  Test.make ~name:"churn epoch n=512 (incl. setup)"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 4L in
         let net = Core.Churn_network.create ~rng:s ~n:512 () in
         ignore (Core.Churn_network.epoch net ~leaves:[||] ~join_introducers:[||])))

let dos_net =
  lazy
    (let s = Prng.Stream.of_seed 5L in
     Core.Dos_network.create ~c:2.0 ~rng:s ~n:2048 ())

let test_dos_round =
  Test.make ~name:"dos round n=2048"
    (Staged.stage (fun () ->
         let net = Lazy.force dos_net in
         ignore
           (Core.Dos_network.run_round net
              ~blocked:(Array.make (Core.Dos_network.n net) false))))

let dht =
  lazy
    (let s = Prng.Stream.of_seed 6L in
     Apps.Robust_dht.create ~rng:s ~n:2048 ())

let test_dht_op =
  let counter = ref 0 in
  Test.make ~name:"dht write+read n=2048"
    (Staged.stage (fun () ->
         let d = Lazy.force dht in
         let blocked = Array.make (Apps.Robust_dht.n d) false in
         incr counter;
         ignore
           (Apps.Robust_dht.execute d ~blocked
              (Apps.Robust_dht.Write (!counter, "x")));
         ignore (Apps.Robust_dht.execute d ~blocked (Apps.Robust_dht.Read !counter))))

let test_rapid_kary =
  Test.make ~name:"rapid-kary k=4 d=4"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 7L in
         let cube = Topology.Kary_hypercube.create ~k:4 ~d:4 in
         ignore (Core.Rapid_kary.run ~rng:s cube)))

let test_staged_batch =
  Test.make ~name:"staged read batch 512 keys"
    (Staged.stage (fun () ->
         let d = Lazy.force dht in
         let blocked = Array.make (Apps.Robust_dht.n d) false in
         let keys = Array.init 512 (fun i -> i mod 64) in
         ignore (Apps.Staged_router.read_batch ~dht:d ~blocked ~keys)))

let test_engine_roundtrip =
  (* Guards the zero-cost-when-off claim for tracing: an engine round-trip
     with the null trace must not regress when trace emission sites land in
     delivery or send. *)
  Test.make ~name:"engine round-trip n=1024"
    (Staged.stage (fun () ->
         let n = 1024 in
         let eng = Simnet.Engine.create ~n () in
         for _ = 1 to 4 do
           Simnet.Engine.deliver_and_step eng (fun ~round:_ ~me ~inbox:_ ->
               Simnet.Engine.send eng ~src:me ~dst:((me + 1) mod n) ())
         done))

let test_group_sim_window =
  Test.make ~name:"group-sim full window n=512"
    (Staged.stage (fun () ->
         let s = Prng.Stream.of_seed 9L in
         let cube = Topology.Hypercube.create 5 in
         let gs =
           Core.Group_sim.create ~rng:s ~n:512
             ~group_of:(Array.init 512 (fun v -> v mod 32))
             (Core.Supernode_sampling.protocol ~cube ())
         in
         Core.Group_sim.run_all gs ~blocked_for_round:(fun ~round:_ ->
             Array.make 512 false)))

let all_tests =
  Test.make_grouped ~name:"overlay-reconfig"
    [
      test_rapid_hgraph; test_plain_hgraph; test_rapid_hypercube;
      test_rapid_kary; test_churn_epoch; test_dos_round; test_dht_op;
      test_staged_batch; test_engine_roundtrip; test_group_sim_window;
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let run () =
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results = benchmark () in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol img)

(* Tests for lib/chord: identifier-space algebra, ring construction and
   oracles, maintenance convergence from degraded state, lookup vs the
   brute-force oracle (with graceful degradation when the fingers are
   gone), the stale-view adversary's budget discipline, and the workload
   driver's chord backend (including the E19 shape on a small instance:
   reconfiguration holds goodput where Chord collapses). *)

let seed = 0xC402D_5EEDL

let rng () = Prng.Stream.of_seed seed

(* ---------- Id ---------- *)

(* dist-based membership oracle: x is in the cyclic interval (a, b] iff
   walking clockwise from a reaches x no later than b. *)
let oracle_in_oc ~m a b x =
  if a = b then true
  else
    let d = Chord.Id.dist ~m a x in
    d > 0 && d <= Chord.Id.dist ~m a b

let oracle_in_oo ~m a b x =
  if a = b then x <> a
  else
    let d = Chord.Id.dist ~m a x in
    d > 0 && d < Chord.Id.dist ~m a b

let id_triple_gen =
  let open QCheck.Gen in
  let* m = int_range 3 Chord.Id.max_bits in
  let* a = int_range 0 (Chord.Id.space m - 1) in
  let* b = int_range 0 (Chord.Id.space m - 1) in
  let* x = int_range 0 (Chord.Id.space m - 1) in
  return (m, a, b, x)

let qcheck_interval_membership =
  QCheck.Test.make ~name:"in_oc/in_oo match the dist oracle" ~count:500
    (QCheck.make id_triple_gen) (fun (m, a, b, x) ->
      Chord.Id.in_oc a b x = oracle_in_oc ~m a b x
      && Chord.Id.in_oo a b x = oracle_in_oo ~m a b x)

let qcheck_dist_antisymmetry =
  QCheck.Test.make ~name:"dist a b + dist b a = 2^m (a <> b)" ~count:500
    (QCheck.make id_triple_gen) (fun (m, a, b, _) ->
      let d1 = Chord.Id.dist ~m a b and d2 = Chord.Id.dist ~m b a in
      if a = b then d1 = 0 && d2 = 0 else d1 + d2 = Chord.Id.space m)

let test_finger_start () =
  let m = 10 in
  let id = 1000 in
  Alcotest.(check int) "wraps" ((1000 + 512) mod 1024)
    (Chord.Id.finger_start ~m id 9);
  (try
     ignore (Chord.Id.finger_start ~m id m);
     Alcotest.fail "finger index m accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "i=0" 1001 (Chord.Id.finger_start ~m id 0)

(* ---------- Ring ---------- *)

let make_ring ?fingers ?succs n =
  let ring = Chord.Ring.create ?fingers ?succs ~rng:(rng ()) ~n () in
  Chord.Ring.reset_ideal ring;
  ring

let test_ring_distinct_ids () =
  let n = 200 in
  let ring = make_ring n in
  let m = Chord.Ring.m ring in
  let seen = Hashtbl.create n in
  for v = 0 to n - 1 do
    let id = Chord.Ring.id ring v in
    Alcotest.(check bool) "id in space" true (id >= 0 && id < Chord.Id.space m);
    Alcotest.(check bool) "id distinct" false (Hashtbl.mem seen id);
    Hashtbl.replace seen id ()
  done

let test_reset_ideal_converged () =
  let ring = make_ring 64 in
  Alcotest.(check (float 1e-9)) "succ_ok" 1.0
    (Chord.Ring.succ_ok_fraction ring);
  Alcotest.(check bool) "connected" true (Chord.Ring.ring_connected ring);
  (* every finger slot of every node is oracle-exact *)
  for v = 0 to 63 do
    let node = Chord.Ring.node ring v in
    Array.iteri
      (fun i f ->
        let start =
          Chord.Id.finger_start ~m:(Chord.Ring.m ring) (Chord.Ring.id ring v) i
        in
        Alcotest.(check int)
          (Printf.sprintf "finger %d of %d" i v)
          (Chord.Ring.oracle_owner ring start)
          f)
      node.Chord.Ring.fingers
  done

let test_holds_replica_chain () =
  let n = 32 in
  let ring = make_ring ~succs:4 n in
  let kid = Chord.Ring.key_id ring 7 in
  let owner = Chord.Ring.oracle_owner ring kid in
  Alcotest.(check bool) "owner holds" true (Chord.Ring.holds ring owner ~key_id:kid);
  (* the r-th successor after the owner chain does not hold the key *)
  let v = ref owner in
  for _ = 1 to 4 do
    v := Chord.Ring.oracle_next ring !v
  done;
  Alcotest.(check bool) "past the chain" false
    (Chord.Ring.holds ring !v ~key_id:kid)

(* ---------- maintenance convergence ---------- *)

(* Kill a fifth of the membership on a converged ring, then let
   stabilize/fix_fingers run with no faults: the successor structure must
   become oracle-exact again and every finger of every live node must
   equal successor(n + 2^i) over the surviving membership. *)
let test_maintenance_reconverges () =
  let n = 64 in
  let ring = make_ring n in
  let rt = Simnet.Runtime.create ~n () in
  let net = Chord.Net.create ring ~rt () in
  let r = rng () in
  Array.iter
    (fun v -> Chord.Ring.set_alive ring v false)
    (Prng.Stream.sample_distinct r n ~k:(n / 5));
  let avail v = Chord.Ring.is_alive ring v in
  let period = 8 in
  let rounds = 2 * Chord.Ring.nf ring * period in
  for _ = 1 to rounds do
    Chord.Net.tick net ~avail
  done;
  Alcotest.(check (float 1e-9)) "succ_ok" 1.0
    (Chord.Ring.succ_ok_fraction ring);
  Alcotest.(check bool) "connected" true (Chord.Ring.ring_connected ring);
  let m = Chord.Ring.m ring in
  for v = 0 to n - 1 do
    if Chord.Ring.is_alive ring v then
      let node = Chord.Ring.node ring v in
      Array.iteri
        (fun i f ->
          let start = Chord.Id.finger_start ~m (Chord.Ring.id ring v) i in
          Alcotest.(check int)
            (Printf.sprintf "finger %d of %d" i v)
            (Chord.Ring.oracle_owner ring start)
            f)
        node.Chord.Ring.fingers
  done

let test_join_integrates () =
  let n = 48 in
  let ring = Chord.Ring.create ~rng:(rng ()) ~n () in
  (* node 0 is outside the initial converged membership *)
  Chord.Ring.set_alive ring 0 false;
  Chord.Ring.reset_ideal ring;
  Chord.Ring.set_alive ring 0 true;
  let rt = Simnet.Runtime.create ~n () in
  let net = Chord.Net.create ring ~rt () in
  let avail v = Chord.Ring.is_alive ring v in
  Alcotest.(check bool) "join ok" true (Chord.Net.join net ~avail ~via:1 0);
  let node = Chord.Ring.node ring 0 in
  Alcotest.(check int) "successor found" (Chord.Ring.oracle_next ring 0)
    node.Chord.Ring.succs.(0);
  (* a few maintenance periods integrate the joiner fully *)
  for _ = 1 to 4 * 8 do
    Chord.Net.tick net ~avail
  done;
  Alcotest.(check (float 1e-9)) "succ_ok" 1.0
    (Chord.Ring.succ_ok_fraction ring);
  Alcotest.(check bool) "connected" true (Chord.Ring.ring_connected ring)

(* ---------- lookup ---------- *)

let lookup_case_gen =
  let open QCheck.Gen in
  let* n = int_range 8 128 in
  let* key = int_range 0 4095 in
  let* entry_pick = int_range 0 (n - 1) in
  return (n, key, entry_pick)

let qcheck_lookup_matches_oracle =
  QCheck.Test.make ~name:"lookup on the ideal ring finds the oracle owner"
    ~count:100 (QCheck.make lookup_case_gen) (fun (n, key, entry_pick) ->
      let ring = make_ring n in
      let rt = Simnet.Runtime.create ~n () in
      let kid = Chord.Ring.key_id ring key in
      let o =
        Chord.Lookup.find ring ~rt
          ~avail:(fun _ -> true)
          ~from:entry_pick ~id:kid ()
      in
      let bound = Chord.Ring.m ring + Chord.Ring.r ring in
      o.Chord.Lookup.ok
      && o.Chord.Lookup.owner = Chord.Ring.oracle_owner ring kid
      && o.Chord.Lookup.hops <= bound
      && o.Chord.Lookup.timeouts = 0)

let test_lookup_degrades_to_succ_walk () =
  let n = 24 in
  let ring = make_ring n in
  (* wipe every finger table: routing must fall back to successor walking *)
  for v = 0 to n - 1 do
    Array.fill (Chord.Ring.node ring v).Chord.Ring.fingers 0
      (Chord.Ring.nf ring) (-1)
  done;
  let rt = Simnet.Runtime.create ~n () in
  let kid = Chord.Ring.key_id ring 3 in
  let o =
    Chord.Lookup.find ring ~rt ~avail:(fun _ -> true) ~from:0 ~id:kid ()
  in
  Alcotest.(check bool) "still succeeds" true o.Chord.Lookup.ok;
  Alcotest.(check int) "oracle owner" (Chord.Ring.oracle_owner ring kid)
    o.Chord.Lookup.owner

(* a target equal to the entry node's own id is owned by the entry node;
   the route goes a full turn round to its predecessor and back *)
let test_lookup_own_id () =
  List.iter
    (fun n ->
      let ring = make_ring n in
      let bound = Chord.Ring.m ring + Chord.Ring.r ring in
      for from = 0 to n - 1 do
        let rt = Simnet.Runtime.create ~n () in
        let kid = Chord.Ring.id ring from in
        let o =
          Chord.Lookup.find ring ~rt ~avail:(fun _ -> true) ~from ~id:kid ()
        in
        Alcotest.(check bool) "succeeds" true o.Chord.Lookup.ok;
        Alcotest.(check int) "owner is the entry node" from o.Chord.Lookup.owner;
        Alcotest.(check bool) "hop bound" true (o.Chord.Lookup.hops <= bound)
      done)
    [ 8; 37; 128 ]

(* ---------- adversary ---------- *)

(* The Chord adversary as it was before its snapshots became target
   lists: every round a copy of the membership bitmap and of every node's
   successor list, and a fresh n-cell array per mark to reject repeats.
   It draws exactly what [Chord.Adversary] draws. *)
module Copying_chord = struct
  type view = { v_alive : bool array; v_succs : int array array }

  type t = {
    strategy : Chord.Adversary.strategy;
    budget : int;
    rng : Prng.Stream.t;
    ring : Chord.Ring.t;
    snapshots : view Simnet.Snapshots.t;
    hot : int array;
  }

  let create ~lateness ?staleness ~strategy ~frac ~rng ~ring ~hot_ids () =
    let snapshots =
      Simnet.Snapshots.create ?staleness ~lateness rng
    in
    {
      strategy;
      budget = int_of_float (frac *. float_of_int (Chord.Ring.n ring));
      rng;
      ring;
      snapshots;
      hot = hot_ids;
    }

  let observe t =
    if t.strategy = Chord.Adversary.Succ_kill then
      let n = Chord.Ring.n t.ring in
      Simnet.Snapshots.push t.snapshots
        {
          v_alive = Array.copy (Chord.Ring.alive t.ring);
          v_succs =
            Array.init n (fun v ->
                Array.copy (Chord.Ring.node t.ring v).Chord.Ring.succs);
        }

  let mark t ~into =
    let n = Chord.Ring.n t.ring in
    let chosen = Array.make n false in
    let left = ref t.budget in
    let block v =
      if !left > 0 && v >= 0 && v < n && not chosen.(v) then begin
        chosen.(v) <- true;
        into.(v) <- true;
        decr left
      end
    in
    if t.budget > 0 then
      match (t.strategy, Simnet.Snapshots.view t.snapshots) with
      | Chord.Adversary.No_attack, _ | Chord.Adversary.Succ_kill, None -> ()
      | Chord.Adversary.Random_blocking, _ ->
          while !left > 0 do
            block (Prng.Stream.int t.rng n)
          done
      | Chord.Adversary.Succ_kill, Some view ->
          Array.iter
            (fun kid ->
              if !left > 0 then begin
                let owner =
                  Chord.Ring.owner_with t.ring ~alive:view.v_alive kid
                in
                if owner >= 0 then begin
                  block owner;
                  Array.iter block view.v_succs.(owner)
                end
              end)
            t.hot
end

(* Target-list snapshots against the copying adversary, round by round,
   while churn flips membership and maintenance rewrites successor lists
   (here: random members and random list entries, [-1] included). *)
let qcheck_adversary_matches_copying =
  QCheck.Test.make ~name:"target-list adversary marks what the copying one does"
    ~count:200
    QCheck.(
      quad int64 (int_bound 2)
        (oneofl [ `Late 0; `Late 1; `Late 8; `Late 24; `Uniform; `Mixed ])
        (oneofl [ 0.0; 0.05; 0.2; 0.45 ]))
    (fun (seed, strat_i, late, frac) ->
      let n = 64 in
      let world = Prng.Stream.of_seed seed in
      let ring = Chord.Ring.create ~rng:(Prng.Stream.of_seed seed) ~n () in
      Chord.Ring.reset_ideal ring;
      let strategy =
        List.nth
          Chord.Adversary.[ No_attack; Random_blocking; Succ_kill ]
          strat_i
      in
      let lateness, staleness =
        match late with
        | `Late l -> (l, None)
        | `Uniform -> (0, Some (Simnet.Snapshots.Uniform (1, 12)))
        | `Mixed -> (0, Some (Simnet.Snapshots.Mixed 2.5))
      in
      let hot_ids = Array.init 16 (fun k -> Chord.Ring.key_id ring k) in
      let rng () = Prng.Stream.of_seed (Int64.add seed 1L) in
      let adv =
        Chord.Adversary.create ~lateness ?staleness ~strategy ~frac
          ~rng:(rng ()) ~ring ~hot_ids ()
      and copying =
        Copying_chord.create ~lateness ?staleness ~strategy ~frac
          ~rng:(rng ()) ~ring ~hot_ids ()
      in
      let ok = ref true in
      for _ = 1 to 30 do
        for _ = 1 to Prng.Stream.int world 4 do
          let v = Prng.Stream.int world n in
          Chord.Ring.set_alive ring v (not (Chord.Ring.is_alive ring v))
        done;
        for _ = 1 to Prng.Stream.int world 8 do
          let succs = (Chord.Ring.node ring (Prng.Stream.int world n)).Chord.Ring.succs in
          succs.(Prng.Stream.int world (Array.length succs)) <-
            Prng.Stream.int world (n + 1) - 1
        done;
        Chord.Adversary.observe adv;
        Copying_chord.observe copying;
        let got = Array.make n false and want = Array.make n false in
        Chord.Adversary.mark adv ~into:got;
        Copying_chord.mark copying ~into:want;
        ok := !ok && got = want
      done;
      !ok)

(* A succ-kill round builds one target list of at most [budget] ids, and
   a random round allocates nothing: no copy of the membership or of the
   successor lists, and no per-round array to reject repeats. *)
let test_adversary_allocation () =
  let n = 1 lsl 14 in
  let ring = make_ring n in
  let hot_ids = Array.init 4096 (fun k -> Chord.Ring.key_id ring k) in
  List.iter
    (fun strategy ->
      let adv =
        Chord.Adversary.create ~lateness:8 ~strategy ~frac:0.2 ~rng:(rng ())
          ~ring ~hot_ids ()
      in
      let budget = n / 5 and into = Array.make n false in
      let round () =
        Chord.Adversary.observe adv;
        Chord.Adversary.mark adv ~into
      in
      for _ = 1 to 10 do
        round ()
      done;
      let rounds = 8 in
      let (), bytes =
        Testutil.allocated_bytes (fun () ->
            for _ = 1 to rounds do
              round ()
            done)
      in
      let words = bytes /. 8.0 /. float_of_int rounds in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words a round (budget %d)"
           (Chord.Adversary.strategy_to_string strategy) words budget)
        true
        (words <= float_of_int (budget + 64)))
    Chord.Adversary.[ Random_blocking; Succ_kill ]

let test_adversary_budget () =
  let n = 100 in
  let ring = make_ring n in
  let hot_ids = Array.init 32 (fun k -> Chord.Ring.key_id ring k) in
  let adv =
    Chord.Adversary.create ~lateness:1 ~strategy:Chord.Adversary.Succ_kill
      ~frac:0.3 ~rng:(rng ()) ~ring ~hot_ids ()
  in
  Chord.Adversary.observe adv;
  Chord.Adversary.observe adv;
  let blocked = Array.make n false in
  Chord.Adversary.mark adv ~into:blocked;
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 blocked in
  Alcotest.(check bool)
    (Printf.sprintf "budget respected (%d blocked)" count)
    true
    (count > 0 && count <= 30);
  (* the blocked set is drawn from the believed owner-plus-successor-list
     chains of the hottest keys: on the unchanged ideal ring the view is
     oracle-exact, so every blocked node sits within r + 1 chain steps of
     some hot key's owner (the owner and its full successor list; [holds]
     itself covers only the first r of those) *)
  let chain_member v =
    Array.exists
      (fun kid ->
        let w = ref (Chord.Ring.oracle_owner ring kid) in
        let hit = ref (!w = v) in
        for _ = 1 to Chord.Ring.r ring do
          w := Chord.Ring.oracle_next ring !w;
          if !w = v then hit := true
        done;
        !hit)
      hot_ids
  in
  Array.iteri
    (fun v b ->
      if b then
        Alcotest.(check bool)
          (Printf.sprintf "node %d aims at a replica chain" v)
          true (chain_member v))
    blocked

let test_adversary_alias () =
  (match Chord.Adversary.parse_strategy "group-kill" with
  | Ok Chord.Adversary.Succ_kill -> ()
  | _ -> Alcotest.fail "group-kill alias");
  match Chord.Adversary.parse_strategy "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

(* ---------- Sim determinism ---------- *)

let test_sim_deterministic () =
  let cfg =
    Chord.Sim.config ~rounds:24 ~lookups:4
      ~strategy:Chord.Adversary.Succ_kill ~frac:0.2 ~churn:(0.1, 8) ~n:128 ()
  in
  let r1 = Chord.Sim.run ~seed:7L cfg and r2 = Chord.Sim.run ~seed:7L cfg in
  Alcotest.(check int) "issued" r1.Chord.Sim.issued r2.Chord.Sim.issued;
  Alcotest.(check int) "ok" r1.Chord.Sim.ok r2.Chord.Sim.ok;
  Alcotest.(check int) "bits" r1.Chord.Sim.total_bits r2.Chord.Sim.total_bits;
  Alcotest.(check (float 1e-9)) "succ_ok" r1.Chord.Sim.succ_ok
    r2.Chord.Sim.succ_ok;
  let r3 = Chord.Sim.run ~seed:8L cfg in
  Alcotest.(check bool) "seed matters" true
    (r1.Chord.Sim.total_bits <> r3.Chord.Sim.total_bits)

(* ---------- workload driver backend ---------- *)

(* The Chord backend with every knob at its default. *)
let chord_backend =
  Workload.Driver.Chord { fingers = None; succs = None; period = None }

let small_spec =
  Workload.Spec.make ~clients:32 ~rounds:24 ~keys:128
    ~arrivals:(Workload.Spec.Open_loop { rate = 0.5 })
    ~mix:{ Workload.Spec.read = 0.7; write = 0.2; publish = 0.1 }
    ~popularity:(Workload.Spec.Zipf 1.1) ~slo:8 ~timeout:16 ()

let test_driver_chord_clean_serves_everything () =
  let cfg = Workload.Driver.config ~backend:chord_backend small_spec in
  let r = Workload.Driver.run ~seed:11L ~n:256 cfg in
  let t = r.Workload.Driver.total in
  Alcotest.(check bool) "issued > 0" true (t.Workload.Driver.issued > 0);
  Alcotest.(check int) "all served" t.Workload.Driver.issued
    t.Workload.Driver.ok;
  Alcotest.(check int) "accounting" t.Workload.Driver.issued
    (t.Workload.Driver.ok + t.Workload.Driver.timed_out
   + t.Workload.Driver.failed);
  Alcotest.(check int) "no supernodes" 0 r.Workload.Driver.max_group_load;
  Alcotest.(check bool) "bits accounted" true (r.Workload.Driver.total_bits > 0)

let test_driver_backends_same_requests () =
  (* same seed, same spec: the two backends must issue the identical
     request stream (admissions are backend-independent) *)
  let run backend =
    Workload.Driver.run ~seed:13L ~n:256
      (Workload.Driver.config ~backend small_spec)
  in
  let r_robust = run Workload.Driver.Robust in
  let r_chord =
    run chord_backend
  in
  List.iter2
    (fun (a : Workload.Driver.class_report) (b : Workload.Driver.class_report) ->
      Alcotest.(check string) "class" a.Workload.Driver.cls b.Workload.Driver.cls;
      Alcotest.(check int)
        (a.Workload.Driver.cls ^ " issued")
        a.Workload.Driver.issued b.Workload.Driver.issued)
    r_robust.Workload.Driver.classes r_chord.Workload.Driver.classes

let test_driver_e19_shape () =
  (* the headline: under the stale-view group-kill budget the
     reconfiguration backend keeps serving, Chord's goodput collapses *)
  let run backend =
    let cfg =
      Workload.Driver.config ~backend ~attack:Workload.Attack.Group_kill
        ~frac:0.25 ~retries:3 small_spec
    in
    let r = Workload.Driver.run ~seed:17L ~n:256 cfg in
    Workload.Driver.goodput r.Workload.Driver.total
  in
  let g_robust = run Workload.Driver.Robust in
  let g_chord = run chord_backend in
  Alcotest.(check bool)
    (Printf.sprintf "reconfig holds (%.3f)" g_robust)
    true (g_robust >= 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "chord collapses (%.3f)" g_chord)
    true (g_chord < 0.9);
  Alcotest.(check bool) "visible gap" true (g_robust -. g_chord >= 0.1)

let test_driver_chord_knob_validation () =
  (try
     ignore
       (Workload.Driver.config
          ~backend:
            (Workload.Driver.Chord
               { Workload.Driver.fingers = Some 0; succs = None; period = None })
          small_spec);
     Alcotest.fail "fingers=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Workload.Driver.config
         ~backend:
           (Workload.Driver.Chord
              { Workload.Driver.fingers = None; succs = Some (-2); period = None })
         small_spec);
    Alcotest.fail "succs=-2 accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "chord"
    [
      ( "id",
        Alcotest.test_case "finger_start" `Quick test_finger_start
        :: List.map QCheck_alcotest.to_alcotest
             [ qcheck_interval_membership; qcheck_dist_antisymmetry ] );
      ( "ring",
        [
          Alcotest.test_case "distinct ids" `Quick test_ring_distinct_ids;
          Alcotest.test_case "reset_ideal converged" `Quick
            test_reset_ideal_converged;
          Alcotest.test_case "replica chain" `Quick test_holds_replica_chain;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "reconverges after failures" `Quick
            test_maintenance_reconverges;
          Alcotest.test_case "join integrates" `Quick test_join_integrates;
        ] );
      ( "lookup",
        Alcotest.test_case "degrades to successor walk" `Quick
          test_lookup_degrades_to_succ_walk
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_lookup_matches_oracle ]
        @ [ Alcotest.test_case "own id routes a full turn" `Quick
              test_lookup_own_id ] );
      ( "adversary",
        [
          Alcotest.test_case "budget discipline" `Quick test_adversary_budget;
          Alcotest.test_case "group-kill alias" `Quick test_adversary_alias;
          Alcotest.test_case "allocation per round" `Quick
            test_adversary_allocation;
          QCheck_alcotest.to_alcotest qcheck_adversary_matches_copying;
        ] );
      ( "sim",
        [ Alcotest.test_case "deterministic" `Quick test_sim_deterministic ] );
      ( "driver",
        [
          Alcotest.test_case "clean chord serves everything" `Quick
            test_driver_chord_clean_serves_everything;
          Alcotest.test_case "backends see the same requests" `Quick
            test_driver_backends_same_requests;
          Alcotest.test_case "e19 shape: chord collapses" `Quick
            test_driver_e19_shape;
          Alcotest.test_case "knob validation" `Quick
            test_driver_chord_knob_validation;
        ] );
    ]

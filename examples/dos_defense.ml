(* Scenario: a service overlay under a sustained denial-of-service attack.

   The attacker can block a quarter of all servers every round and knows
   the full topology — but only with a delay.  We run the same group-kill
   attack twice: once fully informed (0-late) and once delayed by one
   reconfiguration period (= Theta(log log n) rounds).  The Section 5
   network shrugs off the delayed attacker and dies instantly to the
   informed one: the entire value of constant reconfiguration in one plot.

   Run with:  dune exec examples/dos_defense.exe *)

let n = 4096
let frac = 0.25

let run ~lateness ~windows =
  let s = Prng.Stream.of_seed 13L in
  let net = Core.Dos_network.create ~c:2.0 ~rng:(Prng.Stream.split s) ~n () in
  let cube = Topology.Hypercube.create (Core.Dos_network.dimension net) in
  let adv =
    Core.Dos_adversary.create Core.Dos_adversary.Group_kill
      ~rng:(Prng.Stream.split s) ~lateness ~frac
  in
  let p = Core.Dos_network.period net in
  Printf.printf
    "attacker lateness %d rounds (reconfiguration period is %d):\n" lateness p;
  for w = 1 to windows do
    let starved = ref 0 and disconnected = ref 0 and min_avail = ref max_int in
    for _ = 1 to p do
      Core.Dos_adversary.observe adv ~epoch:(Core.Dos_network.epoch net)
        (fun () -> Core.Dos_network.group_of net);
      let blocked = Core.Dos_adversary.blocked_set adv ~cube ~n in
      let r = Core.Dos_network.run_round net ~blocked in
      if r.Core.Dos_network.starved_groups > 0 then incr starved;
      if not r.Core.Dos_network.connected then incr disconnected;
      min_avail := min !min_avail r.Core.Dos_network.min_group_available
    done;
    Printf.printf
      "  window %2d: starved rounds %2d/%2d, disconnected %2d/%2d, weakest \
       group had %d available members%s\n"
      w !starved p !disconnected p
      (if !min_avail = max_int then 0 else !min_avail)
      (match Core.Dos_network.last_window net with
      | Some lw when lw.Core.Dos_network.window = w - 1 ->
          if lw.Core.Dos_network.reconfigured then " -> groups reshuffled"
          else " -> RECONFIGURATION FAILED"
      | _ -> "")
  done;
  print_newline ()

let () =
  Printf.printf
    "DoS defense: n = %d servers, attacker blocks %.0f%% of them every round\n\n"
    n (100. *. frac);
  run ~lateness:0 ~windows:4;
  run ~lateness:20 ~windows:4;
  print_endline
    "A 0-late attacker sees today's groups and suffocates them outright; an\n\
     attacker delayed past one reconfiguration period only ever sees groups\n\
     that no longer exist, so every group keeps available members and the\n\
     non-blocked nodes stay connected (Theorem 6)."

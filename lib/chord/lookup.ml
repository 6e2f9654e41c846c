type outcome = { ok : bool; owner : int; hops : int; timeouts : int; msgs : int }

exception Done of int

let find ring ~rt ~avail ?(accept = fun _ -> true) ?max_hops ~from ~id () =
  let m = Ring.m ring in
  let max_hops = Option.value max_hops ~default:(4 * m) in
  let hops = ref 0 and timeouts = ref 0 and msgs = ref 0 in
  let budget_left () = !hops + !timeouts < max_hops in
  (* one request leg out, and if the target is reachable, one reply leg
     back; the request is charged even when it dies on the wire *)
  let contact v =
    incr msgs;
    let req = Simnet.Runtime.leg rt ~dst:v () in
    if not (req && avail v) then begin
      incr timeouts;
      false
    end
    else begin
      incr msgs;
      if Simnet.Runtime.leg rt ~src:v () then begin
        incr hops;
        true
      end
      else begin
        incr timeouts;
        false
      end
    end
  in
  let outcome ok owner =
    { ok; owner; hops = !hops; timeouts = !timeouts; msgs = !msgs }
  in
  try
    let cur = ref from in
    let progressing = ref true in
    while !progressing do
      let nd = Ring.node ring !cur in
      let cid = nd.Ring.id in
      let s0 =
        let rec first i =
          if i >= Array.length nd.Ring.succs then -1
          else if nd.Ring.succs.(i) >= 0 then nd.Ring.succs.(i)
          else first (i + 1)
        in
        first 0
      in
      if s0 >= 0 && Id.in_oc cid (Ring.id ring s0) id then begin
        (* [cur] believes the key falls to its successor list: the entries
           are exactly the believed replica chain, walked in order; if none
           is contactable and accepted, the lookup fails here *)
        progressing := false;
        Array.iter
          (fun cand ->
            if cand >= 0 && budget_left () && contact cand && accept cand then
              raise (Done cand))
          nd.Ring.succs
      end
      else begin
        (* greedy routing: every known pointer strictly inside (cur, id),
           farthest (closest preceding the target) first; successor
           entries ride along as the walking fallback; a target equal to
           [cur]'s own id lies a full turn away, as in [Id.in_oo a a] *)
        let dtarget =
          match Id.dist ~m cid id with 0 -> Id.space m | d -> d
        in
        let cands = ref [] in
        let consider v =
          if v >= 0 && not (List.mem v !cands) then begin
            let d = Id.dist ~m cid (Ring.id ring v) in
            if d > 0 && d < dtarget then cands := v :: !cands
          end
        in
        Array.iter consider nd.Ring.fingers;
        Array.iter consider nd.Ring.succs;
        let cands =
          List.sort
            (fun a b ->
              compare (Id.dist ~m cid (Ring.id ring b)) (Id.dist ~m cid (Ring.id ring a)))
            !cands
        in
        progressing := false;
        List.iter
          (fun cand ->
            if (not !progressing) && budget_left () && contact cand then begin
              cur := cand;
              progressing := true
            end)
          cands
      end;
      if !progressing && not (budget_left ()) then progressing := false
    done;
    outcome false (-1)
  with Done owner -> outcome true owner

type t = { dht : Robust_dht.t }

let seq_bits = 20
let max_seq = (1 lsl seq_bits) - 1

exception Topic_full of { topic : int; seq : int }

let () =
  Printexc.register_printer (function
    | Topic_full { topic; seq } ->
        Some
          (Printf.sprintf
             "Apps.Pubsub.Topic_full(topic %d, seq %d > max %d)" topic seq
             max_seq)
    | _ -> None)

let create ~dht = { dht }

(* Composite keys pack as [topic * 2^20 + seq]; a sequence number past
   [max_seq] would carry into the topic bits and silently alias the next
   topic's key space, so the overflow is a typed error, checked before any
   write happens. *)
let composite topic seq =
  if topic < 0 || seq < 0 then invalid_arg "Pubsub: key out of range";
  if seq > max_seq then raise (Topic_full { topic; seq });
  (topic lsl seq_bits) lor seq

let counter_key topic = composite topic 0

let next_slot ~topic last =
  if last >= max_seq then None else Some (last + 1, composite topic (last + 1))

(* The counter of a fresh topic is absent, which reads as zero; None means
   the DHT could not be reached at all. *)
let read_counter t ~blocked topic =
  let r = Robust_dht.execute t.dht ~blocked (Robust_dht.Read (counter_key topic)) in
  if not r.Robust_dht.ok then None
  else
    match r.Robust_dht.value with
    | Some s -> int_of_string_opt s
    | None -> Some 0

let last_seq t ~blocked ~topic = read_counter t ~blocked topic

let publish t ~blocked ~topic ~payload =
  match read_counter t ~blocked topic with
  | None -> None
  | Some m ->
      if m >= max_seq then raise (Topic_full { topic; seq = m + 1 });
      let seq = m + 1 in
      let w1 =
        Robust_dht.execute t.dht ~blocked
          (Robust_dht.Write (composite topic seq, payload))
      in
      if not w1.Robust_dht.ok then None
      else
        let w2 =
          Robust_dht.execute t.dht ~blocked
            (Robust_dht.Write (counter_key topic, string_of_int seq))
        in
        if w2.Robust_dht.ok then Some seq else None

let publish_batch t ~blocked items =
  (* Aggregate per topic: one counter read + one counter write per topic
     regardless of how many publications it receives. *)
  let per_topic = Hashtbl.create 16 in
  List.iter
    (fun (topic, payload) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt per_topic topic)
      in
      Hashtbl.replace per_topic topic (payload :: existing))
    items;
  let published = ref 0 and failed = ref 0 in
  Hashtbl.iter
    (fun topic payloads ->
      let payloads = List.rev payloads in
      match read_counter t ~blocked topic with
      | None -> failed := !failed + List.length payloads
      | Some m ->
          if m + List.length payloads > max_seq then
            raise (Topic_full { topic; seq = m + List.length payloads });
          let seq = ref m in
          let all_ok = ref true in
          List.iter
            (fun payload ->
              incr seq;
              let w =
                Robust_dht.execute t.dht ~blocked
                  (Robust_dht.Write (composite topic !seq, payload))
              in
              if w.Robust_dht.ok then incr published
              else begin
                incr failed;
                all_ok := false
              end)
            payloads;
          if !all_ok || !seq > m then
            ignore
              (Robust_dht.execute t.dht ~blocked
                 (Robust_dht.Write (counter_key topic, string_of_int !seq))))
    per_topic;
  (!published, !failed)

let publish_batch_aggregated t ~blocked items =
  let dht = t.dht in
  let supernodes = Robust_dht.supernode_count dht in
  let group_of = Robust_dht.group_of dht in
  (* 1. Every publication enters at a random non-blocked server; collect
     per-origin-supernode topic counts (local pre-combining). *)
  let contributions = Array.make supernodes [] in
  let per_origin = Hashtbl.create 64 in
  let entered = ref [] and failed_entry = ref 0 in
  List.iter
    (fun (topic, payload) ->
      match Robust_dht.random_entry dht ~blocked with
      | None -> incr failed_entry
      | Some entry ->
          let origin = group_of.(entry) in
          entered := (topic, payload) :: !entered;
          let key = (origin, topic) in
          Hashtbl.replace per_origin key
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_origin key)))
    items;
  Hashtbl.iter
    (fun (origin, topic) count ->
      contributions.(origin) <- (topic, count) :: contributions.(origin))
    per_origin;
  (* 2. Butterfly aggregation of the counts to the counter owners. *)
  let dest_of_key topic = Robust_dht.supernode_of_key dht (counter_key topic) in
  let totals, stats =
    Butterfly.aggregate ~cube:(Robust_dht.cube dht) ~dest_of_key ~contributions
  in
  (* 3. Bulk sequence assignment: one counter read + one counter write per
     topic, performed by the owner. *)
  let base = Hashtbl.create 16 in
  let counter_failed = Hashtbl.create 16 in
  Array.iter
    (fun tbl ->
      Hashtbl.iter
        (fun topic total ->
          match read_counter t ~blocked topic with
          | None -> Hashtbl.replace counter_failed topic ()
          | Some m ->
              if m + total > max_seq then
                raise (Topic_full { topic; seq = m + total });
              Hashtbl.replace base topic m;
              let w =
                Robust_dht.execute dht ~blocked
                  (Robust_dht.Write (counter_key topic, string_of_int (m + total)))
              in
              if not w.Robust_dht.ok then Hashtbl.replace counter_failed topic ())
        tbl)
    totals;
  (* 4. Store the payloads under their assigned sequence numbers, in
     submission order per topic. *)
  let published = ref 0 and failed = ref !failed_entry in
  List.iter
    (fun (topic, payload) ->
      if Hashtbl.mem counter_failed topic || not (Hashtbl.mem base topic) then
        incr failed
      else begin
        let seq = 1 + Hashtbl.find base topic in
        Hashtbl.replace base topic seq;
        let w =
          Robust_dht.execute dht ~blocked
            (Robust_dht.Write (composite topic seq, payload))
        in
        if w.Robust_dht.ok then incr published else incr failed
      end)
    (List.rev !entered);
  ((!published, !failed), stats)

let fetch_batch t ~blocked subscribers =
  let subs = Array.of_list subscribers in
  (* Phase 1: combined read of the distinct topics' counters. *)
  let topics =
    List.sort_uniq compare (List.map fst subscribers) |> Array.of_list
  in
  let counter_keys = Array.map counter_key topics in
  let counter_values, _ =
    Staged_router.read_batch ~dht:t.dht ~blocked ~keys:counter_keys
  in
  let m_of = Hashtbl.create 16 in
  Array.iteri
    (fun i topic ->
      let m =
        match counter_values.(i) with
        | Some s -> int_of_string_opt s
        | None -> Some 0
        (* an absent counter means a fresh topic; a routing failure would
           also read as None here, so a fresh-vs-failed distinction needs
           stats.failed = 0, which callers get from the returned stats *)
      in
      Hashtbl.replace m_of topic m)
    topics;
  (* Phase 2: one combined read batch over every needed (topic, seq). *)
  let wanted = ref [] in
  Array.iter
    (fun (topic, since) ->
      match Hashtbl.find_opt m_of topic with
      | Some (Some m) ->
          for seq = since + 1 to m do
            wanted := composite topic seq :: !wanted
          done
      | _ -> ())
    subs;
  let keys = Array.of_list (List.sort_uniq compare !wanted) in
  let values, stats = Staged_router.read_batch ~dht:t.dht ~blocked ~keys in
  let value_of = Hashtbl.create 64 in
  Array.iteri (fun i key -> Hashtbl.replace value_of key values.(i)) keys;
  let results =
    Array.map
      (fun (topic, since) ->
        match Hashtbl.find_opt m_of topic with
        | Some (Some m) ->
            if m <= since then Some []
            else begin
              let out = ref [] and ok = ref true in
              for seq = since + 1 to m do
                match Hashtbl.find_opt value_of (composite topic seq) with
                | Some (Some payload) -> out := payload :: !out
                | _ -> ok := false
              done;
              if !ok then Some (List.rev !out) else None
            end
        | _ -> None)
      subs
  in
  (results, stats)

let fetch_since t ~blocked ~topic ~since =
  match read_counter t ~blocked topic with
  | None -> None
  | Some m ->
      if m <= since then Some []
      else begin
        let out = ref [] in
        let ok = ref true in
        for seq = since + 1 to m do
          let r =
            Robust_dht.execute t.dht ~blocked
              (Robust_dht.Read (composite topic seq))
          in
          match (r.Robust_dht.ok, r.Robust_dht.value) with
          | true, Some payload -> out := payload :: !out
          | _ -> ok := false
        done;
        if !ok then Some (List.rev !out) else None
      end

(* OVERLAY_DOMAINS overrides the runtime's recommendation (sweep runs on
   shared CI machines want a pinned worker count); anything unparsable or
   < 1 falls back / clamps so a bad value can never disable the harness. *)
let default_domains () =
  match Sys.getenv_opt "OVERLAY_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d -> max 1 d
      | None -> max 1 (Domain.recommended_domain_count ()))
  | None -> max 1 (Domain.recommended_domain_count ())

let map ?domains f xs =
  let n = Array.length xs in
  let workers = min n (match domains with Some d -> max 1 d | None -> default_domains ()) in
  if workers <= 1 || n <= 1 then Array.map f xs
  else begin
    (* Static block distribution: worker w handles indices with
       [i mod workers = w].  Tasks in this repository have similar costs
       per index, so striping balances well without a work queue. *)
    let results = Array.make n None in
    let failure = Atomic.make None in
    let run_stripe w =
      let i = ref w in
      while !i < n && Atomic.get failure = None do
        (try results.(!i) <- Some (f xs.(!i))
         with e ->
           (* Capture the backtrace together with the exception so the
              re-raise after the join can preserve it. *)
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        i := !i + workers
      done
    in
    let handles =
      Array.init (workers - 1) (fun w -> Domain.spawn (fun () -> run_stripe (w + 1)))
    in
    run_stripe 0;
    Array.iter Domain.join handles;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    (* every index was visited by exactly one stripe *)
    Array.map (function Some v -> v | None -> assert false) results
  end

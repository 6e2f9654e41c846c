(* Streaming aggregation over any mergeable accumulator.

   A windowed accumulator partitions the round axis into fixed-width
   windows and keeps one M.t per window.  Observations are applied
   in-place to the window owning their round; when the stream moves past
   a window it is "closed".  With [retain = false] closed windows are
   immediately folded into a running total, so memory stays O(1) in the
   run length — the property that lets million-node sweeps keep summary
   statistics without multi-GB per-event state.  Because Mergeable
   demands an associative merge with no data loss, the grand total is
   independent of the window width and of the retain flag (checked by a
   qcheck property in test_stats.ml). *)

module type Mergeable = sig
  type t

  val merge : t -> t -> t
end

module Make (M : Mergeable) = struct
  type t = {
    window : int;
    retain : bool;
    empty : unit -> M.t;
    mutable current : M.t;
    mutable current_index : int; (* window index; -1 before any observation *)
    mutable closed : (int * M.t) list; (* newest first; only when retain *)
    mutable folded : M.t; (* merge of discarded windows when not retain *)
    mutable last_round : int;
  }

  let create ?(window = 1) ?(retain = true) ~empty () =
    if window <= 0 then invalid_arg "Windowed.create: window must be positive";
    {
      window;
      retain;
      empty;
      current = empty ();
      current_index = -1;
      closed = [];
      folded = empty ();
      last_round = -1;
    }

  let close_current t =
    if t.current_index >= 0 then
      if t.retain then t.closed <- (t.current_index, t.current) :: t.closed
      else t.folded <- M.merge t.folded t.current

  let observe t ~round f =
    if round < 0 then invalid_arg "Windowed.observe: negative round";
    if round < t.last_round then
      invalid_arg "Windowed.observe: rounds must be non-decreasing";
    t.last_round <- round;
    let w = round / t.window in
    if t.current_index < 0 then t.current_index <- w
    else if w > t.current_index then begin
      close_current t;
      t.current <- t.empty ();
      t.current_index <- w
    end;
    f t.current

  let windows t =
    if t.current_index < 0 then []
    else List.rev ((t.current_index, t.current) :: t.closed)

  let total t =
    let acc = List.fold_left (fun acc (_, m) -> M.merge acc m) t.folded t.closed in
    if t.current_index < 0 then acc else M.merge acc t.current
end

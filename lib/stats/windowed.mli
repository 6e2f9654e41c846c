(** Streaming, windowed aggregation over any shard-mergeable accumulator.

    [Make (M)] partitions the round axis into fixed-width windows and
    keeps one [M.t] per window, applying observations in place.  With
    [retain = false], windows the stream has moved past are folded into
    a running total so memory stays O(1) in the run length — per-window
    detail is traded away but the grand total is preserved exactly,
    because [M.merge] is associative and lossless.  The grand total is
    therefore independent of both the window width and the retain flag
    (qcheck-checked in [test_stats.ml]). *)

(** A shard-mergeable accumulator, such as {!Log_histogram} or
    {!Moments}.  Laws every argument satisfies, and that qcheck
    properties in [test/test_stats.ml] exercise for both:

    - {b associativity}: [merge a (merge b c)] and [merge (merge a b) c]
      describe the same accumulated state, so shards may be grouped
      arbitrarily;
    - {b shard invariance}: feeding observations to one accumulator is
      indistinguishable from splitting them across shards in any way and
      merging;
    - {b empty compatibility}: merging with a fresh (empty) accumulator
      is the identity, so [empty] is a usable fold seed. *)
module type Mergeable = sig
  type t

  val merge : t -> t -> t
  (** Combine two accumulators as if every observation of both had been
      fed to a single one.  Never mutates its arguments. *)
end

module Make (M : Mergeable) : sig
  type t

  val create : ?window:int -> ?retain:bool -> empty:(unit -> M.t) -> unit -> t
  (** [create ~empty ()] makes a windowed accumulator whose windows are
      [window] rounds wide (default 1).  [retain] (default [true]) keeps
      every closed window for {!windows}; [retain:false] folds closed
      windows into a running total and drops them.  [empty] must build a
      fresh identity accumulator (merging it in changes nothing).
      Raises [Invalid_argument] when [window <= 0]. *)

  val observe : t -> round:int -> (M.t -> unit) -> unit
  (** [observe t ~round f] applies [f] to the accumulator of the window
      owning [round] (window index [round / window]).  Rounds must be
      fed in non-decreasing order — moving to a later window closes the
      current one; raises [Invalid_argument] on a round regression or a
      negative round. *)

  val windows : t -> (int * M.t) list
  (** Retained windows as [(window_index, acc)] pairs, oldest first,
      including the still-open current window.  When [retain:false] only
      the current window appears. *)

  val total : t -> M.t
  (** Merge of everything observed so far — folded, retained and current
      windows.  Equals what a single unwindowed [M.t] would hold. *)
end

(** Self-stabilization driver: detect-and-repair from a corrupted topology.

    The paper's guarantees start from a {e correct} overlay; this driver
    answers the recovery question its model leaves open (see Avatar and
    the self-stabilizing-overlay framework in PAPERS.md): starting from an
    adversarially corrupted successor-array family
    ({!Simnet.Corruption}), how many rounds and message bits until
    {!Simnet.Invariants.check_all} holds again?

    Each epoch runs three repair phases, all locally detectable and all
    charged through {!Simnet.Runtime} (so a {!Simnet.Faults} plan can
    drop/delay the repair traffic itself, bounded by a per-node
    {!Retry.policy} budget):

    + {b patch} — out-of-range pointers and collision losers (every
      over-subscribed target keeps only its lowest-indexed predecessor)
      are re-aimed at the uncovered targets; one full pass makes every
      cycle a permutation.
    + {b splice} — pairwise orbit merges (swapping two successors merges
      two orbits) in ceil(log2 orbits) waves until each cycle is a single
      Hamilton cycle.
    + {b reconfigure} — one pass of the paper's Algorithm 3
      ({!Reconfig.reconfigure} with identity relabeling) re-randomizes the
      repaired topology; not needed for convergence, so its failure under
      faults only defers re-randomization to the next epoch.

    Convergence is declared when {!Simnet.Invariants.check_all} returns
    [[]].  [Static] mode runs detection only — the baseline that must
    report residual violations forever.

    Trace vocabulary (consumed by [trace_check --require]): [Note]
    ["repair/detect"] per epoch with per-kind violation counts, [Span]s
    ["repair/patch"], ["repair/splice"], ["repair/reconfig"], [Note]s
    ["repair/reconfig-failed"], ["repair/residual"], and ["converged"]
    with the final rounds/bits totals. *)

type mode = Repair | Static

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type report = {
  mode : mode;
  converged : bool;  (** all invariants restored *)
  epochs : int;  (** detect-and-repair epochs run *)
  rounds : int;  (** communication rounds charged, detection included *)
  bits : int;  (** message bits spent on repair and re-randomization *)
  initial_violations : int;  (** defect count of the corrupted state *)
  residual : Simnet.Invariants.violation list;
      (** violations still standing at the end ([[]] iff [converged]) *)
  patches : int;  (** local pointer patches applied *)
  splices : int;  (** orbit merges applied *)
  reconfigs : int;  (** successful Algorithm-3 re-randomization passes *)
  retries : int;  (** repair legs and replies re-attempted after loss *)
}

val run :
  ?trace:Simnet.Trace.t ->
  ?mode:mode ->
  ?max_epochs:int ->
  ?retry:Retry.policy ->
  ?faults:Simnet.Faults.plan ->
  corruption:Simnet.Corruption.spec ->
  rng:Prng.Stream.t ->
  n:int ->
  d:int ->
  unit ->
  report
(** Build a correct [d/2]-cycle topology over [n] nodes from [rng],
    corrupt it with [corruption] (whose own keyed stream leaves [rng]
    untouched), then run detect-and-repair epochs (default [mode] =
    [Repair], at most [max_epochs] = 16) until convergence or the epoch
    budget is spent.  [retry] (default {!Retry.fixed}) bounds per-node
    re-attempts of lost repair legs; [faults] (drop/duplicate/delay
    features only) applies to the repair traffic itself.  Same seed ⇒
    byte-identical trace and report.  Raises [Invalid_argument] on
    [n < 4], [d < 2] or [max_epochs < 1]. *)

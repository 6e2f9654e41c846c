(** Minimal deterministic fork-join parallelism on OCaml 5 domains, used by
    the experiment harness to compute independent table cells on separate
    cores.

    Design constraints honoured by the callers in this repository:
    - every task derives all of its randomness from its own
      {!Prng.Stream} (seeded by task identity), so results are
      bit-identical whether run sequentially or on any number of domains;
    - tasks share no mutable state (tables are filled from the returned
      values, sequentially);
    - the number of live domains stays below the runtime's recommended
      count. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1; the calling domain
    works alongside the spawned ones, so this is the total parallelism.
    The [OVERLAY_DOMAINS] environment variable, when set to an integer,
    overrides the recommendation (clamped to at least 1; unparsable
    values are ignored).  The variable is re-read on every call, so a
    test or harness can change it between runs. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] applies [f] to every element, distributing elements across
    [domains] worker domains ([default_domains ()] by default) in stripes
    by index; the result array is in input order.  Exceptions raised by
    [f] are re-raised in the caller.

    Short-input degrade: with [domains = 1] or fewer than two elements no
    domain is spawned and the call is exactly [Array.map f xs] — same
    order, same exceptions — so callers never pay spawn overhead for
    trivial inputs and sequential reference runs use the same code
    path. *)

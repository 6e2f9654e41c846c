(** Non-uniform distributions on top of {!Stream}, used by workload
    generators (churn schedules, request traces). *)

val poisson : Stream.t -> float -> int
(** [poisson s lambda] draws from Poisson(lambda) by Knuth's method.  A
    [lambda] above 500 is drawn as a sum of independent pieces of mean at
    most 500, so large rates are exact too (one piece alone would stop
    near 745, where [exp (-lambda)] underflows); a draw at [lambda <= 500]
    is one piece.  Costs O(lambda) uniforms.  Raises [Invalid_argument]
    for a negative or non-finite [lambda]. *)

type zipf_table
(** The cumulative weights of a Zipf law over ranks [1, n]. *)

val zipf_table : n:int -> s:float -> zipf_table
(** [zipf_table ~n ~s] is the table for probability proportional to
    [1 / rank^s], built in O(n).  Build it once per run and share it:
    a table is immutable, and this module holds no state of its own, so
    draws from any number of domains need no lock.  Raises
    [Invalid_argument] if [n <= 0]. *)

val zipf_draw : Stream.t -> zipf_table -> int
(** [zipf_draw st table] draws a rank in [1, n]: one [Stream.float] scaled
    to the total weight, then a binary search, O(log n). *)

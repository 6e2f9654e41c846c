(** Parameter derivations shared by the sampling primitives and networks.

    Notation from the paper: walks of length t = ceil(2 alpha log_{d/4} n)
    mix on a random H-graph of degree d (Lemma 2); pointer doubling builds
    them in T = ceil(log2 t) iterations (Section 3.1); the multiset sizes
    follow the schedules of Lemma 7 (H-graphs) and Lemma 9 (hypercube). *)

val log2f : float -> float
val log2i_ceil : int -> int
(** ceil(log2 n) for n >= 1. *)

val walk_length : alpha:float -> d:int -> n:int -> int
(** ceil(2 alpha log_{d/4} n); requires d >= 5 (so the base d/4 > 1) and
    n >= 2. *)

val iterations_hgraph : alpha:float -> d:int -> n:int -> int
(** T = ceil(log2 (walk_length)): number of doubling iterations so the
    generated walks have length 2^T >= walk_length. *)

val schedule_hgraph : eps:float -> c:float -> n:int -> t:int -> int array
(** Lemma 7 schedule [m_0; ...; m_T] with m_i = ceil((2+eps)^(T-i) c log2 n);
    requires 0 < eps <= 1. *)

val iterations_hypercube : d:int -> int
(** ceil(log2 d): doubling iterations to randomize all d coordinates. *)

val schedule_hypercube : eps:float -> c:float -> n:int -> iters:int -> int array
(** Lemma 9 schedule with m_i = ceil((1+eps)^(iters-i) c log2 n). *)

val dos_dimension : c:float -> n:int -> int
(** Section 5: the largest d with 2^d <= n / (c log2 n) (at least 1). *)

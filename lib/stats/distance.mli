(** Distances between probability distributions, used to quantify how close
    the sampling primitives come to the uniform distribution (Lemma 2 /
    Theorem 3 of the paper). *)

val tv_from_uniform : float array -> float
(** Total variation distance from the uniform distribution over the same
    support size. *)

val tv_counts_uniform : int array -> float
(** Same, starting from raw counts (normalized internally).  Returns 0 for an
    all-zero array. *)

val l2 : float array -> float array -> float
(** Euclidean distance between distributions. *)

val kl_divergence : float array -> float array -> float
(** [kl_divergence p q] = sum p_i log2 (p_i / q_i), with 0 log 0 = 0.
    Infinite if p puts mass where q does not. *)

val expected_tv_noise_floor : samples:int -> cells:int -> float
(** Expected total-variation distance between the *empirical* distribution of
    [samples] i.i.d. uniform draws over [cells] values and the true uniform
    distribution: approximately sqrt(cells / (2 pi samples)).  Used to judge
    whether a measured TV is at the statistical noise floor. *)

(** Pearson chi-square goodness-of-fit test, used to test the uniformity
    claims of the sampling primitives (Theorem 3) and of cycle
    reconfiguration (Lemma 10). *)

val statistic_uniform : int array -> float
(** Pearson X^2 = sum (O_i - E_i)^2 / E_i against the uniform distribution
    with the same total count. *)

val cdf : df:int -> float -> float
(** [cdf ~df x] is P(X <= x) for a chi-square distribution with [df] degrees
    of freedom, computed via the regularized lower incomplete gamma
    function. *)

val test_uniform : int array -> float
(** [test_uniform counts] is the p-value of the hypothesis that [counts] are
    draws from the uniform distribution over the cells (df = cells - 1).
    Small p-values (< 0.01) reject uniformity. *)

val gammp : a:float -> x:float -> float
(** Regularized lower incomplete gamma P(a, x); exposed for testing. *)

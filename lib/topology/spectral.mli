(** Spectral estimates for regular (multi)graphs.

    Corollary 1 of the paper states that a random H-graph has all non-trivial
    adjacency eigenvalues bounded by 2 sqrt(d) w.h.p., which is what makes
    its random walks rapidly mixing.  We verify this empirically with power
    iteration on the adjacency operator deflated against the all-ones
    vector (the top eigenvector of a connected regular graph). *)

val second_eigenvalue : ?iterations:int -> Graph.t -> Prng.Stream.t -> float
(** Estimate of |lambda_2| of the adjacency matrix of a regular graph.
    Raises [Invalid_argument] if the graph is not regular. *)

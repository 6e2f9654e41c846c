(** The Section 6 weighted sampling primitive as a {!Core.Group_sim}
    protocol.  No run kind executes it; the [virtual-sampling] suite runs
    it at message level against the abstract realization.

    {!Core.Rapid_weighted} realizes the 2^(-d(x)) weights by running
    Algorithm 2 on the virtual full cube that the variable-dimension
    supernodes (the {!Core.Split_merge} leaves) cover.  This module makes
    that executable at message level: each leaf's group simulates {e all} of the leaf's
    virtual labels at once — the protocol state is the vector of
    per-virtual-label Algorithm-2 states, and inter-leaf messages carry
    their virtual source and destination so the wrapper can demultiplex.
    Lemma 18 bounds the dimension spread by 2, so a group simulates at most
    4 virtual labels: constant overhead, exactly as in the abstract
    realization. *)

type state
type msg

val protocol :
  ?eps:float ->
  ?c:float ->
  tree:'a Core.Split_merge.t ->
  unit ->
  (state, msg) Core.Group_sim.protocol
(** The leaf/supernode indices used by {!Core.Group_sim} are the dense indices
    of [Core.Split_merge.leaves tree] (sorted by (dim, bits)); the tree must
    cover the namespace.  Raises [Invalid_argument] otherwise. *)

val samples : state -> int array
(** Dense leaf indices sampled by this leaf, pooled over all of its virtual
    labels; each entry is distributed with probability 2^(-d(leaf)).  Call
    on a final state. *)

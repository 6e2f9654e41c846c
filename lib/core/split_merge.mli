(** Variable-dimension supernodes for the churn-resistant extension of the
    DoS network (Section 6).

    Supernodes are labels over binary strings: a supernode x = (b_1 ... b_l)
    has dimension d(x) = l.  The current supernodes always form the leaf set
    of a binary tree (a prefix-free covering of {0,1}^inf), so sampling a
    supernode with probability 2^(-d(x)) is just following fresh random bits
    from the root.  Splitting x replaces it by its two children (appending a
    0/1 bit); merging replaces x and its sibling by their parent; if the
    sibling was itself split, the subtree below it is first forced to merge
    (exactly the rule in the paper).

    Labels are encoded as ints with b_i at bit position i-1, paired with
    their length. *)

type label = { bits : int; dim : int }

val child0 : label -> label
val child1 : label -> label
val parent : label -> label
(** Raises [Invalid_argument] at dimension 0. *)

val sibling : label -> label
val is_prefix : label -> label -> bool
(** [is_prefix a b]: a's bits are the first bits of b (a.dim <= b.dim). *)

val connected : label -> label -> bool
(** Section 6's rule: with d(x) <= d(y), the first d(x) bits of the labels
    differ in exactly one coordinate. *)

type 'a t
(** A leaf tree whose leaves carry values of type ['a]. *)

val create : unit -> 'a t
(** A tree with the single leaf of dimension 0 is not representable (the
    paper's networks always have dimension >= 1); [create] returns an empty
    tree to be filled with [add_leaf]. *)

val add_leaf : 'a t -> label -> 'a -> unit
(** Raises [Invalid_argument] if the label conflicts with an existing leaf
    (equal, prefix, or extension). *)

val find : 'a t -> label -> 'a option
val leaf_count : 'a t -> int
val leaves : 'a t -> (label * 'a) list
(** Sorted by (dim, bits) for determinism. *)

val iter : (label -> 'a -> unit) -> 'a t -> unit

val split : 'a t -> label -> ('a -> 'a * 'a) -> unit
(** [split t x f] replaces leaf [x] by its children, dividing its value with
    [f].  Raises [Invalid_argument] if [x] is not a leaf. *)

val merge : 'a t -> label -> ('a -> 'a -> 'a) -> unit
(** [merge t x f] merges leaf [x] with its sibling into their parent,
    force-merging the sibling's subtree first if necessary; values combine
    with [f] (first argument is the lower-labelled side).  Raises
    [Invalid_argument] if [x] is not a leaf or has dimension 0. *)

val sample : 'a t -> Prng.Stream.t -> label
(** The unique leaf that is a prefix of an infinite uniform bit string —
    i.e. leaf x with probability 2^(-d(x)).  Raises [Invalid_argument] on an
    empty or non-covering tree. *)

val max_dim : 'a t -> int
val min_dim : 'a t -> int
val covers : 'a t -> bool
(** The leaves partition the full binary namespace (total probability 1). *)

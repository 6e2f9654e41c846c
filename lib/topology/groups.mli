val members : groups:int -> int array -> int array array
(** [members ~groups group_of]: row [x] holds the ids [v] with
    [group_of.(v) = x], ascending, in an array of exactly their number; an
    id whose group is outside [[0, groups)] is in no row.  A counting sort. *)

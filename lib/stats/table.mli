(** Plain-text table rendering for the benchmark harness: every experiment
    prints its results as one of these tables. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows may be added with fewer cells than columns; missing cells render
    empty.  Extra cells raise [Invalid_argument]. *)

val note : t -> string -> unit
(** Attach a free-form footnote printed under the table. *)

val pp : Format.formatter -> t -> unit
val print : t -> unit
(** [pp]/[print] render the title, an aligned grid, and the notes. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
val cell_pct : float -> string
(** Formatting helpers for uniform numeric cells; [cell_pct 0.5] is
    ["50.0%"]. *)

(** Decimal text of integers for the request plane's payloads and
    publication counters, written straight into [Bytes] instead of going
    through [Printf]'s format interpreter.  Every result equals its
    [Printf]/[string_of_int] counterpart byte for byte; negative
    arguments, which the request plane never passes, are handed to those
    functions. *)

val of_int : int -> string
(** [of_int v = string_of_int v]. *)

val pair : char -> int -> int -> string
(** [pair c a b = Printf.sprintf "%c%d.%d" c a b], e.g. ["v3.17"]. *)

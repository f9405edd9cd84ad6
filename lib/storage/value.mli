(** Dynamically typed SQL values.

    Values are the atoms stored in tuples and manipulated by the SQL
    evaluator and the entangled query engine. Dates are first-class
    because the paper's travel scenario computes stay lengths as date
    differences ([SET @StayLength = '2011-05-06' - @ArrivalDay]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Date of int  (** days since 1970-01-01 (may be negative) *)

(** Total order over values. [Null] sorts first; values of different
    runtime types are ordered by type. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int

(** [date_of_ymd ~y ~m ~d] builds a date value from a civil date
    (proleptic Gregorian calendar). *)
val date_of_ymd : y:int -> m:int -> d:int -> t

(** [ymd_of_date days] is the civil date for a day count, the inverse of
    {!date_of_ymd}. *)
val ymd_of_date : int -> int * int * int

(** [parse_date "2011-05-03"] is [Some (Date _)], [None] when the string
    is not a valid [YYYY-MM-DD] date. *)
val parse_date : string -> t option

(** SQL-ish addition: int+int, date+int (days), int+date. Raises
    [Type_error] otherwise. *)
val add : t -> t -> t

(** SQL-ish subtraction: int-int, date-int, and date-date which yields
    the signed number of days as an [Int]. *)
val sub : t -> t -> t

val mul : t -> t -> t
val div : t -> t -> t

exception Type_error of string

(** Type name used in error messages ("int", "date", ...). *)
val type_name : t -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Parse a literal as it appears in data files: ints, [YYYY-MM-DD]
    dates, [true]/[false], anything else as a string. *)
val of_literal : string -> t

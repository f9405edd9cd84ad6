(** Table schemas: ordered, named, typed columns. *)

type col_type = T_bool | T_int | T_str | T_date | T_any

type column = {
  name : string;
  ty : col_type;
}

type t

(** [make cols] builds a schema. Raises [Invalid_argument] on duplicate
    column names. *)
val make : column list -> t

(** Convenience: [of_names ["a"; "b"]] builds an untyped ([T_any])
    schema. *)
val of_names : string list -> t

val columns : t -> column list
val arity : t -> int

(** [index_of schema name] is the position of column [name].
    @raise Not_found if absent. *)
val index_of : t -> string -> int

val mem : t -> string -> bool

(** [check_value ty v] is true when value [v] inhabits column type [ty]
    ([Null] inhabits every type; every value inhabits [T_any]). *)
val check_value : col_type -> Value.t -> bool

val type_name : col_type -> string
val pp : Format.formatter -> t -> unit

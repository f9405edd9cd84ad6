(** The catalog: the named tables of a database instance. *)

type t

val create : unit -> t

(** [create_table t name schema] makes and registers a fresh table.
    @raise Invalid_argument when [name] already exists. *)
val create_table : t -> string -> Schema.t -> Table.t

(** Table names are case-sensitive, as in the paper's examples. *)
val find : t -> string -> Table.t option

(** @raise Not_found when absent. *)
val find_exn : t -> string -> Table.t

val mem : t -> string -> bool
val drop : t -> string -> unit
val table_names : t -> string list
val iter : (string -> Table.t -> unit) -> t -> unit

(** Whether versioned mode is on for this catalog's tables. *)
val versioned : t -> bool

(** Turn on {!Table.enable_versioning} for every table, including tables
    created later. One-way and idempotent; a fresh catalog (including
    one rebuilt by recovery) starts unversioned. *)
val enable_versioning : t -> unit

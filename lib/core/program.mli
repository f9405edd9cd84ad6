(** Entangled transaction programs: a labelled {!Ent_sql.Ast.program}
    that can be serialized (for dormant-pool persistence) and parsed
    back. *)

type t = {
  label : string;
  ast : Ent_sql.Ast.program;
  stmts : Ent_sql.Ast.stmt array;
      (** [ast]'s statements, indexed by the executor's program counter *)
  transactional : bool;
      (** [false] models the paper's -Q workloads: the same code
          without a transaction block, i.e. every statement commits by
          itself (MySQL autocommit). Entangled queries still
          coordinate, but atomicity, group commit and held locks only
          span one statement. *)
  isolation : Ent_txn.Engine.level;
      (** Isolation level the program's transactions run at
          ([Serializable_2pl] by default). [Snapshot] programs read a
          begin-stamp snapshot without read locks and validate their
          write set at commit. *)
}

val make :
  ?label:string ->
  ?transactional:bool ->
  ?isolation:Ent_txn.Engine.level ->
  Ent_sql.Ast.program ->
  t

(** Parse a [BEGIN TRANSACTION ... COMMIT] block. *)
val of_string :
  ?label:string ->
  ?transactional:bool ->
  ?isolation:Ent_txn.Engine.level ->
  string ->
  t

(** Serialize to re-parseable SQL. The label (and, for non-default
    levels, the isolation) is carried in leading comments. *)
val to_string : t -> string

(** Inverse of {!to_string} (label recovered from the comment). *)
val of_serialized : string -> t

(** Number of entangled queries in the program. *)
val entangled_count : t -> int

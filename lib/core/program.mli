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
  templates : Ent_sql.Eval.template array;
      (** each statement's plan key, by statement: every constructor
          keys every statement, so a program statement always finds its
          plan by key ({!Ent_sql.Eval.exec_template}). A copy that
          keeps [ast] ([{ p with isolation = ... }]) keeps the keys. *)
  params : Ent_storage.Value.t array;
      (** the statements' literal values in plan order, statement after
          statement *)
}

(** A program of [ast], each statement keyed by its shape with one walk
    ({!Ent_sql.Eval.plans}): programs of one shape share their plans.
    {!of_string} with [shapes] shares the parse as well. *)
val make :
  ?label:string ->
  ?transactional:bool ->
  ?isolation:Ent_txn.Engine.level ->
  Ent_sql.Ast.program ->
  t

(** Parse a [BEGIN TRANSACTION ... COMMIT] block and {!make} it; with
    [shapes], through that table, so that programs of one shape share
    one parse template (see {!Ent_sql.Parser.parse_shaped}). *)
val of_string :
  ?label:string ->
  ?transactional:bool ->
  ?isolation:Ent_txn.Engine.level ->
  ?shapes:Ent_sql.Parser.Shapes.t ->
  string ->
  t

(** Serialize to re-parseable SQL. The label (and, for non-default
    levels, the isolation) is carried in leading comments. *)
val to_string : t -> string

(** Inverse of {!to_string} (label recovered from the comment), built
    by {!make}. *)
val of_serialized : string -> t

(** Number of entangled queries in the program. *)
val entangled_count : t -> int

(** Static read/write-set summaries: for each statement of a program,
    the tables it touches, in which mode, under which predicate
    ({!Pred.t}). Grounding reads of entangled queries are distinguished
    because they take shared locks during coordination (§3.3). *)

module Ast = Ent_sql.Ast

type mode =
  | Read
  | Ground_read
  | Write

type access = {
  table : string;
  mode : mode;
  pred : Pred.t;
}

type stmt_summary = {
  stmt : Ast.stmt;
  at : Ast.pos;
  accesses : access list;
}

type t = {
  program : Ent_core.Program.t;
  stmts : stmt_summary list;
}

val of_program : Ent_core.Program.t -> t

(** Lock acquisitions in program order under Strict 2PL: shared for
    reads and grounding reads, exclusive for writes, all held to end
    of transaction. *)
val lock_sequence : t -> (string * [ `S | `X ] * Pred.t * Ast.pos) list

(** All tables the program touches, sorted. *)
val tables : t -> string list

val pp_lock : Format.formatter -> [ `S | `X ] -> unit

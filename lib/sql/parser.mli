(** Recursive-descent parser for the SQL dialect of {!Ast}. *)

exception Parse_error of string
(** The message starts with the [line:col] position of the token the
    parser was looking at. *)

(** One top-level item of a script: an explicit transaction block or a
    bare statement (to be run as its own transaction, "autocommit"). *)
type item =
  | Program of Ast.program
  | Stmt of Ast.stmt * Ast.pos  (** position of the statement's first token *)

(** Parse a single statement (no trailing input allowed besides an
    optional [;]). *)
val parse_stmt : string -> Ast.stmt

(** A table of statement shapes: parsed program templates keyed by
    their text with every literal masked. It belongs to the caller that
    generates the programs; it is not safe to share between domains
    that parse at the same time. *)
module Shapes : sig
  type t

  val create : unit -> t
end

(** Parse one [BEGIN TRANSACTION ... COMMIT] block. *)
val parse_program : string -> Ast.program

(** A program parsed through a shape table, with each statement's plan
    key and the program's parameters (see {!Eval.exec_template}). *)
type shaped = {
  program : Ast.program;
      (** equal to [parse_program]'s result; only the nodes above its
          literals are new, every other subtree is shared with the
          shape's template, and statement positions come from the text *)
  plans : Eval.template array;  (** by statement; shared by the template's programs *)
  params : Ent_storage.Value.t array;
      (** the statements' literal values in plan order, statement after
          statement; equal values are shared through the table *)
}

(** Parse one [BEGIN TRANSACTION ... COMMIT] block through a shape
    table: a text whose shape the table holds is built from that
    template, any other text is parsed and becomes its shape's
    template. Every exception is [parse_program]'s. *)
val parse_shaped : Shapes.t -> string -> shaped

(** Parse a whole script: a sequence of transaction blocks and bare
    statements. *)
val parse_script : string -> item list

(** Parse a condition in isolation (used by tests). *)
val parse_cond : string -> Ast.cond

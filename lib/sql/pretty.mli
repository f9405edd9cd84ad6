(** Printers for the SQL AST; output re-parses to an equal AST. *)

val pp_cond : Format.formatter -> Ast.cond -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val stmt_to_string : Ast.stmt -> string

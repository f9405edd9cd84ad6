(** Translation of extended-SQL entangled SELECTs into the IR.

    Host variables ([@var]) are resolved against the transaction's
    environment at translation time, because an entangled query is
    translated at the moment the executing transaction reaches it —
    e.g. in Figure 2 the hotel query mentions [@ArrivalDay], whose
    value is known only after the flight query has been answered. *)

exception Translate_error of string

(** @raise Translate_error on unresolvable host variables or
    projection expressions that mix variables with arithmetic.
    @raise Ir.Unsafe when the result fails validation. *)
val of_ast : env:Ent_sql.Eval.env -> Ent_sql.Ast.entangled_select -> Ir.t

(** [of_ast_reads ~env e] is [of_ast ~env e] together with the host
    bindings the translation read, in read order. Only the head and the
    [IN ANSWER] atoms read [env]: the body keeps its host variables for
    grounding to resolve. Translating [e] again under an [env] that
    binds each of these names to an equal value gives an equal query. *)
val of_ast_reads :
  env:Ent_sql.Eval.env ->
  Ent_sql.Ast.entangled_select ->
  Ir.t * (string * Ent_storage.Value.t) list

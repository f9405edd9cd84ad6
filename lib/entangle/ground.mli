(** Grounding of entangled queries (Appendix A).

    A grounding is the query with its variables replaced by constants
    following a valuation — an assignment of database values to
    variables that satisfies the body. Groundings identify the set of
    acceptable answers for one query in isolation; coordination then
    chooses among them.

    The body is evaluated through the caller's {!Ent_sql.Eval.access},
    so when the access comes from [Engine.access ~grounding:true] the
    reads are automatically table-S-locked and recorded as grounding
    reads. *)


type grounding = {
  g_head : Ir.ground_atom list;  (** the query's own answer tuples *)
  g_post : Ir.ground_atom list;  (** ground postconditions to be met by partners *)
}

exception Ground_error of string

module Valuation : Map.S with type key = string

(** A satisfying assignment of database values to body variables. *)
type valuation = Ent_storage.Value.t Valuation.t

(** Stage 1 of {!compute}: enumerate the valuations satisfying [body]
    under [env], in deterministic order. This is the half that reads
    the database — a pure function of (body, referenced host bindings,
    database state), which is what makes it cacheable ({!Gcache}).
    @raise Ground_error as {!compute}. *)
val valuations :
  ?limit:int ->
  access:Ent_sql.Eval.access ->
  env:Ent_sql.Eval.env ->
  Ent_sql.Ast.cond ->
  valuation list

(** Stage 2 of {!compute}: substitute valuations into the query's head
    and post atoms and de-duplicate, keeping first-seen order. Touches
    no data. *)
val groundings_of : Ir.t -> valuation list -> grounding list

(** A hash of a grounding that reaches every value of every atom, so
    the groundings of one query (which share relation names and
    leading values) spread over {!groundings_of}'s dedup table.
    Relation names are not hashed. *)
val grounding_hash : grounding -> int

(** [compute ~access ~env query] enumerates all groundings of [query]
    on the current database, in deterministic order, de-duplicated.
    [limit] caps the number of valuations explored (default 10_000).
    @raise Ground_error when the body is not evaluable left-to-right
    (a filter mentions a variable no binder binds). *)
val compute :
  ?limit:int ->
  access:Ent_sql.Eval.access ->
  env:Ent_sql.Eval.env ->
  Ir.t ->
  grounding list

val pp_grounding : Format.formatter -> grounding -> unit

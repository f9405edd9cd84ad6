(** Evaluation of the SQL dialect over an abstract data-access
    interface.

    All reads and writes go through an {!access} record so that the
    transaction layer can interpose locking, WAL logging and schedule
    recording without the evaluator knowing. [direct_access] gives the
    raw, unprotected view used by loaders and unit tests. *)

open Ent_storage

exception Eval_error of string

(** Host-variable environment ([@var] bindings). *)
type env = (string, Value.t) Hashtbl.t

val fresh_env : unit -> env

(** Read paths ([scan]/[lookup]/[range]) are lazy sequences: consumers
    that stop early (LIMIT, EXISTS-style checks) never pull — or pay
    for — the remaining rows. Interposed layers attach per-row effects
    (row locks, cost accounting) to the sequence, so each returned
    sequence must be consumed at most once. *)
type access = {
  schema_of : string -> Schema.t;
  scan : string -> (int * Tuple.t) Seq.t;
  lookup : string -> positions:int list -> Value.t list -> (int * Tuple.t) Seq.t;
  insert : string -> Value.t array -> int;
  update : string -> int -> Value.t array -> unit;
  delete : string -> int -> unit;
  create : string -> Schema.t -> unit;
  create_index : string -> string list -> unit;  (** column names *)
  create_ordered_index : string -> string -> unit;  (** one column *)
  range :
    string ->
    position:int ->
    lo:Ordered_index.bound ->
    hi:Ordered_index.bound ->
    (int * Tuple.t) Seq.t;
  has_range : string -> int -> bool;
      (** is there an ordered index on this column? (guides the planner) *)
  drop : string -> unit;
  catalog : Catalog.t;
      (** the catalog whose schemas the access reads; its plan cache
          serves every statement run through this access *)
}

(** Unprotected access to a catalog. *)
val direct_access : Catalog.t -> access

(** [select_rows access env sel] evaluates a classical SELECT and
    returns the projected rows (in deterministic scan order). Host
    bindings ([AS @var] and bare [@var] projections) are applied to
    [env] from the first result row; bound variables are set to [Null]
    when the result is empty. *)
val select_rows : access -> env -> Ast.select -> Value.t array list

(** A statement fragment prepared for repeated runs under different
    valuations of its free variables: an unqualified name that no FROM
    scope binds is looked up in [var] (the entangled-query engine's
    partial valuations). Host bindings are not applied. Preparing looks
    the fragment's plan up by shape; running it evaluates that plan. *)
type 'a correlated = var:(string -> Value.t option) -> 'a

(** A SELECT, evaluated with no outer row in scope. *)
val correlated_select : access -> env -> Ast.select -> Value.t array list correlated

(** An expression, evaluated with no FROM scope.
    @raise Eval_error on unknown columns or unbound host variables. *)
val correlated_expr : access -> env -> Ast.expr -> Value.t correlated

(** A condition, evaluated with no FROM scope. [IN (SELECT ...)]
    subqueries may read the valuation.
    @raise Eval_error when the condition contains [IN ANSWER] — answer
    relations only exist inside entangled query evaluation. *)
val correlated_cond : access -> env -> Ast.cond -> bool correlated

(** Describe the compiled plan of a SELECT: one line per FROM table,
    [SCAN t], [PROBE t ON (cols)] or [RANGE t ON (col)], plus notes for
    grouping, sorting, deduplication and limits. *)
val explain : access -> Ast.select -> string

type outcome =
  | Rows of Value.t array list
  | Affected of int
  | Created

(** Execute a classical statement. [Entangled] and [Rollback]
    statements are the transaction manager's business.
    @raise Eval_error if given one. *)
val exec_stmt : access -> env -> Ast.stmt -> outcome

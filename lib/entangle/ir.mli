(** Intermediate representation of entangled queries (Appendix A):
    a query is [{C} H <- B] where [H] (head) is the query's own
    contribution to the answer relations, [C] (postcondition) is what it
    requires other queries to contribute, and [B] (body) is a condition
    over database relations that binds the variables. *)

open Ent_storage

type term =
  | Const of Value.t
  | Var of string

(** An atom over an ANSWER relation, e.g. [R('Mickey', x, y)]. *)
type atom = {
  rel : string;
  args : term list;
}

(** A ground atom: relation name plus constant tuple. *)
type ground_atom = string * Value.t list

type t = {
  head : atom list;  (** usually a single atom; the IR permits several *)
  post : atom list;
  body : Ent_sql.Ast.cond;  (** no [In_answer] inside *)
  binds : (string * int) list;
      (** host-variable bindings [(var, i)]: after answering, position
          [i] of the first head atom's tuple is stored into [@var] *)
  choose : int;
}

(** All variables of the head and postcondition. *)
val answer_vars : t -> string list

exception Unsafe of string

(** Range-restriction check: every answer variable must be bound by the
    body. @raise Unsafe otherwise. *)
val validate : t -> unit

(** [unifiable a b] — can patterns [a] and [b] denote the same ground
    atom for some assignment of their (disjoint) variables? Used for
    the database-independent partner check of Appendix B. *)
val unifiable : atom -> atom -> bool

(** Substitute a valuation into an atom.
    @raise Not_found if a variable is unassigned. *)
val substitute : (string -> Value.t) -> atom -> ground_atom

val pp : Format.formatter -> t -> unit

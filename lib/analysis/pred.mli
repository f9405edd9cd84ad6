(** A predicate abstraction over WHERE clauses: per-column conjunctive
    constraints (equalities, disequalities, bounds, IN-lists) with an
    [exact] bit that records whether any conjunct fell outside the
    fragment. Constraints are always {e necessary} conditions on
    matching rows, so an unsatisfiable conjunction of two predicates
    proves the row sets disjoint — the soundness basis of
    {!may_overlap} — while satisfiability only means "may match". *)

open Ent_storage

type cstr = {
  eqs : Value.t list;
  nes : Value.t list;
  los : (Value.t * bool) list;  (** lower bounds; [true] = inclusive *)
  his : (Value.t * bool) list;  (** upper bounds; [true] = inclusive *)
  sets : Value.t list list;  (** IN-list memberships *)
}

type t = {
  cols : (string * cstr) list;  (** sorted by column name *)
  falsum : bool;  (** some conjunct is a false constant comparison *)
  exact : bool;  (** no conjunct fell outside the abstraction *)
}

(** A constraint with no requirements at all. *)
val empty_cstr : cstr

(** No constraints, [exact = false]: the predicate of a statement whose
    condition we did not analyse. *)
val top : t

(** No constraints, [exact = true]: a genuinely unconditional access. *)
val exact_top : t

(** Provably no row satisfies the predicate. *)
val unsat : t -> bool

val conjoin : t -> t -> t

(** [false] only when the two predicates provably select disjoint rows. *)
val may_overlap : t -> t -> bool

(** Static candidate count for a column, when its constraints imply a
    finite one: [Some 0] = unsatisfiable, [Some n] = at most [n]
    distinct values, [None] = unbounded. *)
val count : t -> string -> int option

(** Extract the constraints a condition places on the columns the
    caller owns; [owns] decides, from the qualifier, whether a column
    reference belongs to the table (or variable scope) being
    summarised. Disjunctions, negations and subqueries are not
    abstracted — they clear [exact]. *)
val of_cond : owns:(string option -> bool) -> Ent_sql.Ast.cond -> t

(** A human-readable reason the predicate is unsatisfiable, if it is. *)
val unsat_witness : t -> string option

val pp : Format.formatter -> t -> unit

(** Whole-suite static conflict analysis: the pairwise
    conflict/commutativity matrix over transaction programs and the
    cross-program lock-order graph.

    Two programs {e commute} when no pair of their statically
    summarised accesses ({!Summary.accesses_of_stmt}) conflicts: same
    table, at least one write, predicates not provably disjoint
    ({!Pred.may_overlap}). A conflicting pair is {e row-scoped} when
    the conjoined predicate pins at least one column to a finite
    candidate set ({!Pred.count}) — the conflict is confined to
    identifiable rows, so optimistic/multicore execution can arbitrate
    per row — and {e table-scoped} otherwise. The matrix includes the
    diagonal: program [i] against an independent instance of itself.

    The lock-order graph generalises the per-program deadlock lint:
    nodes are tables, an edge [u -> v] for program P means P still
    holds a lock on [u] (Strict 2PL) when it requests one on [v].
    Cycles whose consecutive edges come from different programs,
    conflict in mode, and overlap in predicate are potential
    deadlocks; their absence is a (static, predicate-abstracted)
    deadlock-freedom argument for the suite. *)

type input = {
  source : string;  (** file name or workload label, for findings *)
  program : Ent_core.Program.t;
}

type scope =
  | Row_scope
  | Table_scope

type witness = {
  table : string;
  scope : scope;
  left_mode : Summary.mode;
  right_mode : Summary.mode;
}

type verdict =
  | Commutes
  | Row_conflict
  | Table_conflict

(** Why a conflicting pair is unsafe to demote to snapshot isolation
    (both sides running SI, so no read locks serialize them).
    [Lost_update t]: the write sets overlap on [t] —
    first-committer-wins turns the 2PL wait into commit-time aborts.
    [Write_skew (a, b)]: one side reads a region of [a] the other
    writes, and vice versa on [b], with no write-write overlap needed —
    the canonical SI anomaly, invisible to write-set validation. *)
type si_hazard =
  | Lost_update of string
  | Write_skew of string * string

type cell = {
  verdict : verdict;
  witnesses : witness list;
  si_hazards : si_hazard list;
      (** empty iff the pair is safe to demote to snapshot isolation *)
}

(** A static lock-order edge: program [prog] (index into the input
    list) acquires [mu] on [eu] at [posu] and later requests [mv] on
    [ev] at [posv] while still holding it. *)
type edge = {
  eu : string;
  ev : string;
  prog : int;
  mu : [ `S | `X ];
  pu : Pred.t;
  posu : Ent_sql.Ast.pos;
  mv : [ `S | `X ];
  pv : Pred.t;
  posv : Ent_sql.Ast.pos;
}

type t = {
  inputs : input array;
  cells : cell array array;  (** [cells.(i).(j)]: program i vs program j *)
  edges : edge list;  (** the whole lock-order graph *)
  cycles : edge list list;  (** potential deadlock cycles (length <= 4) *)
}

val analyze : input list -> t

(** The deadlock cycles as [potential-deadlock] findings — the same
    diagnostics {!Lint.run} reports for lock-order cycles. *)
val deadlock_findings : t -> Finding.t list

(** Text rendering: index legend, the matrix ([.] commutes, [r] row
    conflict, [T] table conflict), then the lock-order summary. *)
val pp : Format.formatter -> t -> unit

(** Stable machine-readable form: [programs], [matrix] (cells with
    verdict and per-table witnesses), [lock_order] (edges and cycles). *)
val to_json : t -> Ent_obs.Json.t

(** The lock-order graph in Graphviz DOT; edges on a potential
    deadlock cycle are highlighted. *)
val lock_graph_dot : t -> string

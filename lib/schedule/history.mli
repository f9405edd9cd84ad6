(** Entangled transaction schedules (Appendix C.1).

    A schedule is a sequence of read, grounding-read, quasi-read,
    write, entangle, commit and abort operations tagged with
    transaction ids. Objects carry enough structure to express both the
    synthetic histories of the property tests (named objects) and the
    recorded histories of real executions (tables and rows, where a
    table-level read overlaps every row of that table). *)

type obj =
  | Named of string  (** abstract object, synthetic tests *)
  | Table of string
  | Row of string * int

(** Do two objects denote overlapping data (for conflicts)? A [Table]
    overlaps itself and every [Row] of the same table. *)
val overlaps : obj -> obj -> bool

(** Objects can only overlap when they share this key (the table name,
    or the name of a [Named] object) — the partition used by the
    checkers to avoid quadratic scans. *)
val group_key : obj -> string

type op =
  | Read of int * obj
  | Ground_read of int * obj
  | Quasi_read of int * obj
  | Write of int * obj
  | Entangle of int * int list  (** (event id, participant txns) *)
  | Commit of int
  | Abort of int

type t = op list

(** The schedule operation an engine event stands for: full scans read
    the whole table, indexed lookups and writes one row, grounding reads
    are table-level. [Ev_begin] has no schedule position of its own
    ([None]). The recorder and the certifier both read the engine
    through this one mapping. *)
val of_engine_event : Ent_txn.Engine.event -> op option

(** The transaction an operation belongs to ([Entangle] belongs to all
    its participants; this returns them all). *)
val txns_of_op : op -> int list

val txns : t -> int list
val committed : t -> int list
val aborted : t -> int list

(** The §C.1 validity constraints; empty list = valid schedule:
    - every transaction has exactly one of commit/abort, as its last op;
    - every grounding read is followed by an entangle (involving the
      transaction) or an abort;
    - between a grounding read and that entangle/abort the transaction
      performs only further grounding reads (quasi-reads are injected
      by the system, so they are exempt). *)
val validity_errors : t -> string list

(** Make quasi-reads explicit (§C.2.1): for every entanglement
    operation, every participant quasi-reads (simultaneously, i.e.
    immediately after) each grounding read of every other participant
    associated with that operation. A grounding read with no subsequent
    entangle operation induces no quasi-reads. Existing quasi-reads are
    preserved. *)
val expand_quasi_reads : t -> t

val pp_obj : Format.formatter -> obj -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit

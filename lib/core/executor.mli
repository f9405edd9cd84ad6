(** Statement-level execution of one entangled transaction.

    A {!task} is the scheduler's unit of bookkeeping: a program plus
    its execution state. Tasks survive aborts — a task returned to the
    dormant pool restarts from its first statement under a fresh
    transaction id (the paper's execution model restarts blocked
    transactions in a later run). *)

open Ent_entangle

type failure =
  | Deadlock  (** chosen as deadlock victim; retryable *)
  | Si_conflict of string * int
      (** snapshot transaction lost first-committer-wins validation on
          (table, row) — [("", -1)] when the conflict surfaced
          mid-statement; retryable on a fresh snapshot *)
  | Explicit_rollback  (** the program executed ROLLBACK; final *)
  | Program_error of string  (** unsafe query, type error...; final *)

type status =
  | Runnable
  | Waiting_entangled  (** blocked at an entangled query, needs partners *)
  | Waiting_lock
  | Ready  (** all statements done, waiting to (group-)commit *)
  | Failed of failure  (** engine transaction already aborted *)

(** An entangled statement's translation and the host bindings it read
    (see {!Ent_entangle.Translate.of_ast_reads}). *)
type translation = {
  t_stmt : Ent_sql.Ast.entangled_select;  (** compared physically *)
  t_reads : (string * Ent_storage.Value.t) list;
  t_query : Ir.t;
}

type task = {
  task_id : int;
  program : Program.t;
  arrival : float;
  mutable txn : int;
      (** id of the current or last engine transaction, for events and
          lock queries; -1 before the first one and after a reset *)
  mutable handle : Ent_txn.Engine.txn option;
      (** the current transaction's handle; [None] before it begins,
          after a reset and once the scheduler finalized the task *)
  mutable pc : int;
  mutable env : Ent_sql.Eval.env;
  mutable status : status;
  mutable pending : Ir.t option;  (** translated query when [Waiting_entangled] *)
  mutable attempts : int;  (** how many runs have started this task *)
  mutable work : float;  (** simulated seconds accumulated since last drained *)
  mutable conn : int;  (** connection index, -1 when unassigned *)
  mutable answers : Ir.ground_atom list;  (** answer tuples received, newest first *)
  mutable entangled_since : float option;
      (** simulated time the task reached [Waiting_entangled], for the
          core.entangle.blocked_s metric; cleared on answer/reset *)
  mutable translated : translation option;
      (** the last entangled statement {!exec} translated. Executing
          the same statement node again while [env] binds every name in
          [t_reads] to an equal value reuses [t_query] instead of
          translating again, so a dormant task re-entering its query
          after a lock wait, a repool or in a later run hands the
          scheduler the very same [Ir.t] *)
  mutable grounded : Gcache.memo option;
      (** the memo of the task's last cached grounding, set by the
          scheduler and passed back with its next one
          ({!Ent_entangle.Gcache.compute}). Snapshot tasks never set
          it. *)
}

val make_task :
  task_id:int -> arrival:float -> Program.t -> task

(** Arrival plus the program's [WITH TIMEOUT], if it has one. *)
val deadline : task -> float option

(** The handle of the task's transaction.
    @raise Invalid_argument when the task has none. *)
val handle : task -> Ent_txn.Engine.txn

(** The task has a transaction and it has not finished. *)
val txn_live : task -> bool

(** [start engine costs task] begins a fresh engine transaction for the
    task and marks it runnable. *)
val start : Ent_txn.Engine.t -> Ent_sim.Cost.t -> task -> unit

(** [exec engine isolation costs task stmt] executes one statement
    from outside the program (hub input) in the task's transaction,
    keying it on this run ({!Ent_sql.Eval.exec_stmt}). A
    classical statement that completes advances [task.pc] and returns
    its result. Otherwise the outcome is in [task.status] and the
    result is [None]: an entangled query
    leaves the task [Waiting_entangled] with its translation in
    [task.pending]; a lock wait undoes the statement's writes and
    leaves it [Waiting_lock]; ROLLBACK, a deadlock or an error aborts
    the transaction ([Failed]). Simulated cost is accumulated into
    [task.work]. *)
val exec :
  Ent_txn.Engine.t ->
  Isolation.t ->
  Ent_sim.Cost.t ->
  task ->
  Ent_sql.Ast.stmt ->
  Ent_sql.Eval.outcome option

(** [step engine isolation costs task] runs {!exec} on the program's
    statements from [task.pc] until the task blocks (lock or entangled
    query), finishes ([Ready]), or fails. The statements it runs in one
    transaction share one access record, and each finds its plan by
    its key ({!Program.t.templates}). *)
val step :
  Ent_txn.Engine.t -> Isolation.t -> Ent_sim.Cost.t -> task -> unit

(** Deliver the result of entangled-query evaluation.
    [Answered g] binds the [AS @var] positions from the task's own
    answer tuple and resumes; [Empty] resumes with [Null] bindings;
    [No_partner] leaves the task waiting. *)
val deliver :
  Ent_txn.Engine.t -> Ent_sim.Cost.t -> task -> Coordinate.outcome -> unit

(** Reset a task for re-execution in a later run (after its engine
    transaction was aborted): the finished transaction's handle and
    access records go. [translated] and [grounded] survive: they are
    checked against the task's state when next used. *)
val reset_for_retry : task -> unit

(** True for failures that end the task rather than retrying it. *)
val failure_is_final : failure -> bool

val pp_status : Format.formatter -> status -> unit

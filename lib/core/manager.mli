(** The system façade: a Youtopia-style middle tier over the storage
    engine (Figure 5). Create a manager, define and load tables, submit
    entangled transactions, drive runs, inspect outcomes — and crash
    and recover.

    {[
      let m = Manager.create () in
      Manager.define_table m "Flights"
        [ ("fno", Schema.T_int); ("fdate", Schema.T_date); ("dest", Schema.T_str) ];
      Manager.load_row m "Flights" [ Int 122; date; Str "LA" ];
      let mickey = Manager.submit_string m "BEGIN TRANSACTION; ... COMMIT;" in
      Manager.drain m;
      Manager.outcome m mickey
    ]} *)

open Ent_storage

type t

(** [create ()] builds an empty system. [wal] (default true) enables
    logging and recovery; [config] tunes scheduling (defaults:
    full isolation, 100 connections, run per arrival). *)
val create : ?wal:bool -> ?config:Scheduler.config -> unit -> t

(** Wrap an existing engine (e.g. one rebuilt by hand from a crash
    image) in a fresh manager. *)
val create_with_engine : ?config:Scheduler.config -> Ent_txn.Engine.t -> t

val engine : t -> Ent_txn.Engine.t
val scheduler : t -> Scheduler.t
val catalog : t -> Catalog.t

val define_table : t -> string -> (string * Schema.col_type) list -> unit

(** Bulk-load a row outside any transaction (bootstrap data). *)
val load_row : t -> string -> Value.t list -> unit

(** Add a hash index on the named columns. *)
val add_index : t -> string -> string list -> unit

(** Register a named integrity constraint over the database; a (group
    of) transaction(s) whose writes violate it is aborted at commit
    with [Errored]. *)
val add_constraint : t -> string -> (Catalog.t -> bool) -> unit

(** Attach an observer pair — engine events plus the scheduler's
    entanglement hook — without displacing observers already installed
    (e.g. a {!Ent_schedule.Recorder} and a certifier side by side). *)
val observe :
  t ->
  on_event:(Ent_txn.Engine.event -> unit) ->
  on_entangle:(event:int -> (int * string list) list -> unit) ->
  unit

val submit : t -> Program.t -> int
val submit_string : t -> ?label:string -> string -> int

(** [load_script t ?levels items] runs a parsed script: bootstrap
    statements execute directly against the catalog, and the [n]-th
    transaction block is submitted as program [txn-n] at level
    [Isolation.level levels n] (default {!Isolation.All_2pl}).
    Submissions may start runs, per the configured trigger. Returns the
    submitted (task id, label) pairs in script order.
    @raise Ent_sql.Eval.Eval_error when a bootstrap statement fails. *)
val load_script :
  t -> ?levels:Isolation.levels -> Ent_sql.Parser.item list -> (int * string) list

(** Run until the pool drains or stops making progress. *)
val drain : t -> unit

val run_once : t -> unit
val outcome : t -> int -> Scheduler.outcome option
val results : t -> (int * Scheduler.outcome) list
val answers_of : t -> int -> Ent_entangle.Ir.ground_atom list
val now : t -> float

(** Let simulated wall-clock time pass (e.g. to expire timeouts). *)
val advance_time : t -> float -> unit

val stats : t -> Scheduler.stats

(** Evaluate a read-only SELECT directly against the store (no locks) —
    for tests and examples. *)
val query : t -> string -> Value.t array list

(** Simulate a crash and recover a fresh system from the WAL: the
    database is rebuilt from effectively-committed transactions (a torn
    final record does not survive) and the dormant pool is repopulated
    from its last snapshot.
    @raise Invalid_argument when the manager was created without WAL. *)
val crash_and_recover : t -> t

(** Take a sharp checkpoint, compact the log to it, and persist it to a
    file. Requires a quiescent system (between runs) and a WAL.
    @raise Invalid_argument without WAL or with active transactions. *)
val checkpoint_to_file : t -> string -> unit

(** Boot a fresh system from a WAL file written by
    {!checkpoint_to_file} (or any saved log): replays committed work,
    re-submits the persisted dormant pool. *)
val recover_from_file : ?config:Scheduler.config -> string -> t

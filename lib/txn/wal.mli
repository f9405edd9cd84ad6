(** Write-ahead log.

    The log is the system's stable storage: tables live in volatile
    memory and are rebuilt from the log after a crash. Records carry
    full before/after row images keyed by (table, row id), so replay is
    idempotent and order-insensitive per row.

    Entanglement leaves two traces in the log beyond classical records:
    [Entangle_group] records naming the transactions that entangled
    (needed by the entanglement-aware recovery rule of §4), and
    [Pool_snapshot] records persisting the middleware's dormant
    transaction pool so waiting transactions survive a crash (§5.1:
    "the middleware is stateless; all relevant system state is
    serialized and stored in the database"). *)

open Ent_storage

type lsn = int

type record =
  | Begin of int
  | Write of {
      txn : int;
      table : string;
      row : int;
      before : Tuple.t option;  (** [None] for an insert *)
      after : Tuple.t option;  (** [None] for a delete *)
    }
  | Commit of int
  | Abort of int
  | Create of { table : string; columns : (string * Schema.col_type) list }
  | Entangle_group of { event : int; members : int list }
  | Pool_snapshot of string list
      (** serialized programs of the dormant pool at snapshot time *)
  | Checkpoint of {
      tables :
        (string * (string * Schema.col_type) list * (int * Tuple.t) list) list;
    }
      (** a sharp checkpoint: full images of every table, taken at a
          quiescent point (no active transactions). Recovery restarts
          from the last checkpoint and replays only the tail;
          {!compact} drops everything before it. *)
  | Drop of { table : string }
      (** DROP TABLE, logged when executed: DDL is not transactional *)

type t

val create : unit -> t

(** Append a record; the record is durable immediately (force-at-append). *)
val append : t -> record -> lsn

(** [restore t records] seeds a fresh log with records that are already
    durable (recovery continuing a crashed log). Unlike {!append}, no
    fault-injection sites fire: nothing is being written. *)
val restore : t -> record list -> unit

(** All records in append order. *)
val records : t -> record list

(** The records a crash at this instant would leave durable: the full
    log, minus the final record when a fault injection tore it
    (see {!Ent_fault.Injector}). Equal to {!records} in normal
    operation. *)
val crash_records : t -> record list

val length : t -> int

(** [prefix t n] simulates a crash that lost everything after LSN [n-1]
    — used by tests to crash "mid group commit". The real system forces
    at append, so only in-flight records can be lost. *)
val prefix : t -> int -> record list

(** The records from the last [Checkpoint] onward, checkpoint included
    (all of them without one): what recovery replays. *)
val since_checkpoint : record list -> record list

(** Drop all records before the last [Checkpoint] (no-op without one). *)
val compact : t -> unit

(** Persist the log to a file (binary, versioned header).
    @raise Sys_error on I/O failure. *)
val save : t -> string -> unit

(** Load a log saved by {!save}.
    @raise Failure on a bad header or corrupt file. *)
val load : string -> t

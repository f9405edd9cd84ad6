(** The transactional engine: catalog + lock manager + WAL, with
    per-transaction locked data access.

    The engine is cooperative. Data access raises {!Blocked} when a
    lock must be waited for (the caller suspends the transaction and
    retries the statement after a wake-up) and {!Deadlock_victim} when
    the request would close a waits-for cycle (the caller aborts).

    Transaction id 0 is reserved for bootstrap loading and is always
    treated as committed by recovery. *)

open Ent_storage

exception Blocked of int  (** payload: the blocked transaction id *)

exception Deadlock_victim of int

(** Raised by snapshot-isolation data access when an update/delete
    targets a row whose live version already vanished — the transaction
    is doomed by first-committer-wins and should abort and retry on a
    fresh snapshot. Payload: the transaction id. *)
exception Si_conflict of int

(** Per-transaction isolation level. [Serializable_2pl] is the default
    strict two-phase locking of the paper; [Snapshot] reads a
    begin-stamp snapshot from the version chains, takes zero read
    locks, and validates its write set at commit
    (first-committer-wins). *)
type level =
  | Serializable_2pl
  | Snapshot

val level_to_string : level -> string

(** Accepts ["2pl"]/["serializable"] and ["si"]/["snapshot"]. *)
val level_of_string : string -> level option

(** What a read touched, mirroring the lock taken: full scans read (and
    table-S-lock) the whole table; indexed lookups read specific rows. *)
type read_target =
  | T_table of string
  | T_row of string * int

type event =
  | Ev_read of int * read_target
  | Ev_grounding_read of int * string  (** grounding reads are always table-level *)
  | Ev_write of int * string * int  (** (txn, table, row) *)
  | Ev_begin of int * level
  | Ev_commit of int
  | Ev_abort of int

type t

(** [create ~wal catalog] wraps an existing catalog. With [~wal:true]
    every change is logged and {!log} is available for recovery tests. *)
val create : ?wal:bool -> Catalog.t -> t

val catalog : t -> Catalog.t
val log : t -> Wal.t option
val locks : t -> Lock.t

(** Add a listener: every listener sees every event, in installation
    order. [Ent_core.Manager.observe] attaches through this, so a
    recorder and a certifier can observe the same run. *)
val add_on_event : t -> (event -> unit) -> unit

(** While deferred, observer dispatch pushes events to an
    {!Ent_obs.Stamped} buffer instead of serializing through the
    engine's observer mutex. The scheduler defers around parallel
    phases and flushes at the boundary. *)
val set_deferred_events : t -> bool -> unit

(** Dispatch all deferred events to the observers in stamp order: an
    exact linearization of emission order, so the conflict-order
    guarantee of live dispatch (events of two conflicting operations
    never reorder) is preserved. *)
val flush_events : t -> unit

(** Create a table through the engine so it is logged for recovery. *)
val create_table : t -> string -> Schema.t -> Table.t

(** Bulk-load a row as the bootstrap pseudo-transaction (id 0):
    logged, never locked. *)
val load : t -> string -> Value.t array -> int

(** A transaction's handle, from {!begin_txn} to {!commit} or
    {!abort}. Every per-transaction operation takes the handle, so none
    looks the transaction up. Once the transaction finished, the handle
    is refused: those operations raise [Invalid_argument]. *)
type txn

(** [begin_txn ?isolation t] starts a transaction. A [Snapshot]
    transaction additionally records the current commit stamp as its
    snapshot and registers itself for version-chain GC purposes; the
    version chains themselves are only populated once
    {!Ent_storage.Catalog.enable_versioning} has run on this engine's
    catalog. *)
val begin_txn : ?isolation:level -> t -> txn

(** The transaction's id: what the WAL, events and the lock manager
    name it by. *)
val id : txn -> int

(** True until the transaction commits or aborts. The engine keeps
    live transactions only: commit and abort drop the transaction's
    entry, write log included. *)
val is_live : txn -> bool

(** [access t txn] is the locked {!Ent_sql.Eval.access} view for a
    transaction. [grounding] selects table-level shared locks on reads
    (used while grounding entangled queries, §3.3.3); classical reads
    take intention locks plus row locks on lookups and table locks on
    full scans. The [lock_reads] flag (default true) exists so relaxed
    isolation levels can skip read locks entirely. The record stays
    valid for the transaction's life, so a caller builds it once per
    transaction and flag; its writes raise [Invalid_argument] after
    the transaction finished. *)
val access : t -> txn -> grounding:bool -> ?lock_reads:bool -> unit -> Ent_sql.Eval.access

(** [touch_grounding_tables t txn tables] acquires the table-S
    grounding locks and registers the quasi-read tables exactly as a
    grounding computation over [tables] would, without reading any
    rows — the lock-side-effect half of serving a cached grounding.
    @raise Blocked / Deadlock_victim as {!access} reads do. *)
val touch_grounding_tables : t -> txn -> ?lock_reads:bool -> string list -> unit

(** Number of writes performed so far; pass back to {!rollback_to} for
    statement-level atomicity. *)
val savepoint : txn -> int

(** Undo (with compensation logging) all writes after a savepoint. *)
val rollback_to : t -> txn -> int -> unit

(** Register a named integrity constraint — a predicate over the whole
    database that consistent states satisfy (the "consistency" of
    Assumption 3.1/3.5). Constraints are checked by the execution layer
    before commits; see {!violated_constraint}. *)
val add_constraint : t -> name:string -> (Ent_storage.Catalog.t -> bool) -> unit

(** The name of some violated constraint in the current (dirty) table
    state, if any. *)
val violated_constraint : t -> string option

(** First-committer-wins validation for a snapshot transaction: the
    first written (table, row) that some other transaction committed a
    write to after this transaction's snapshot was taken, or [None]
    when the commit is admissible. Always [None] for 2PL transactions.
    Call before {!commit}; a conflict means the caller must abort. *)
val validate_snapshot : t -> txn -> (string * int) option

(** Commit: logs, releases locks, queues wake-ups. In versioned mode
    also stamps the transaction on the commit clock and records its
    write set for first-committer-wins validation of others. *)
val commit : t -> txn -> unit

(** Abort: undoes all writes (compensation-logged), logs, releases
    locks, queues wake-ups — the one-member case of {!abort_group},
    traced with reason ["rollback"].
    @raise Invalid_argument when the transaction already finished. *)
val abort : t -> txn -> unit

(** Abort several transactions of one entanglement group together.
    Group members share lock ownership and may have interleaved writes
    to the same rows; this undoes their merged write log in reverse
    global order, which aborting them one at a time cannot do safely.
    Finished transactions are skipped; traced with reason ["group"]. *)
val abort_group : t -> txn list -> unit

(** Record that the listed transactions entangled (event id is
    system-wide unique); logged for entanglement-aware recovery. *)
val log_entangle_group : t -> event:int -> members:int list -> unit

(** Tag a transaction as belonging to an entanglement group for lock
    purposes: group members never block each other (they commit or
    abort together, so the group is one distributed lock owner). *)
val set_lock_group : t -> txn:int -> group:int -> unit

(** Persist the dormant pool (serialized programs). *)
val log_pool_snapshot : t -> string list -> unit

(** Write a sharp checkpoint (full table images) into the WAL, so
    recovery restarts from it and the log can be compacted
    ([Wal.compact]). Checks under the registry mutex that no
    transaction is live.
    @raise Invalid_argument while any transaction is active. *)
val checkpoint : t -> unit

(** [recover records] boots the post-crash engine from a crash image:
    the catalog is the replayed store, the WAL continues from the image
    (already-durable records are not re-logged, so a crash during
    recovery loses nothing), transaction ids resume above the image's
    high-water mark, and a sharp checkpoint is written as the recovery
    barrier. The replayed catalog is new, so it starts unversioned with
    empty version chains. Returns the engine and the recovery analysis (for pool
    resubmission). *)
val recover : Wal.record list -> t * Recovery.analysis

(** Transactions granted their pending lock since the last call. *)
val take_wakeups : t -> int list

(** Tables this transaction grounding-read so far (for quasi-read
    bookkeeping). *)
val grounding_reads : txn -> string list

(** Truncate every table's version chains below the oldest live
    snapshot and prune the commit-stamp maps accordingly. No-op unless
    versioned mode is on for this engine's catalog. Cheap enough to
    call at every group-commit boundary; at quiescence it empties the
    chains entirely. *)
val gc_versions : t -> unit

(** Total retained version-chain entries across the catalog (0 at
    quiescence once {!gc_versions} ran). *)
val chain_entries : t -> int

(** Strict two-phase-locking lock manager with multigranularity modes.

    Resources are whole tables or single rows. Classical reads take
    [IS] on the table plus [S] on rows; writes take [IX] plus row [X];
    grounding reads of entangled queries take table-level [S] — the
    paper's §3.3.3 prescription for making quasi-reads repeatable
    ("Minnie's transaction would have held a read lock on the Airlines
    table until commit").

    The manager is cooperative: a conflicting request is enqueued and
    reported as {!Waiting}; the owner is expected to suspend and retry
    after a wake-up. Deadlocks are detected on the waits-for graph at
    enqueue time.

    Keys. A {!resource} is the view callers pass and read back. Each
    call maps it to its key, one immediate int, and from there on no
    string is hashed or compared: the entry map, the per-txn lists of
    held and queued resources and the waits-for index all work on
    keys, and each entry keeps its view for {!dump}, {!waits} and
    {!holders}. Table names are interned into dense ids per manager,
    by name, so a dropped and re-created table is the same resource.
    The intern table is immutable and swapped by compare-and-set: pool
    domains read it without a lock while another domain adds a name.
    How a key is built is private to this module. Two views get the
    same key exactly when they are equal; a view the format cannot
    hold (a row id outside [0 .. max_row], or a table name beyond the
    first {!max_names} one manager met) raises [Invalid_argument]
    rather than share a key. *)

type mode = IS | IX | S | X

type resource =
  | Table of string
  | Row of string * int

type t

val create : unit -> t

(** Capacity of the key format: row ids from 0 to [max_row] (2{^45} - 1
    on 64-bit hosts) and [max_names] (65 536) distinct table names per
    manager. *)
val max_row : int

val max_names : int

(** [key t resource] is [resource]'s key in [t], interning its table
    name if it is new. Equal keys mean equal views. Exposed for tests;
    the bits are not an interface. Raises [Invalid_argument] when the
    view is out of range. *)
val key : t -> resource -> int

(** The entry map is sharded by key so that transactions touching
    disjoint keys never contend on lock-manager-internal
    synchronization. [shard_of t] is [t]'s shard map: fixed for a view
    once its table name is interned, but it depends on the order in
    which [t] met the names. Exposed so tests can construct same-shard
    / cross-shard workloads. *)
val shard_count : int

val shard_of : t -> resource -> int

(** Group-aware ownership: transactions tagged with the same group
    never conflict with each other. The scheduler tags the members of
    an entanglement group — they are guaranteed to commit or abort
    together (group commit), so the group behaves as one distributed
    lock owner; without this, a transaction writing a table its partner
    grounding-read could never commit. Tags are dropped on
    {!release_all}. *)
val set_group : t -> txn:int -> group:int -> unit

type outcome =
  | Granted
  | Waiting

(** [request t ~txn resource mode] acquires or upgrades a lock.
    Upgrades combine the held and requested modes (e.g. holding [S] and
    requesting [IX] escalates to [X]). Re-requesting a covered mode is
    a no-op returning [Granted]. An already-queued request stays queued
    and returns [Waiting] again.

    Cost: mapping the view to its key (a lookup of the table name in
    the intern table, a few string comparisons), then one int hash;
    O(1) expected in the number of holders of [resource]: a lookup of
    the requester's hold, per-mode holder counts for the grant check
    and one insert on grant. Only a requester tagged with a group (see
    {!set_group}) that meets a clashing mode scans the holders.
    Queueing appends to the resource's wait queue. *)
val request : t -> txn:int -> resource -> mode -> outcome

(** [set_probe t p] installs (or, with [None], clears) a probe that
    observes every {!request} on [t] before it is serviced, as (txn,
    resource, requested mode). Test instrumentation: the isolation
    suite uses it to assert snapshot transactions acquire zero read
    locks. *)
val set_probe : t -> (txn:int -> resource -> mode -> unit) option -> unit

(** [release_all t ~txn] releases every lock held by [txn], removes its
    queued requests, and returns the transactions whose queued requests
    became granted, sorted.

    Cost: one holder removal, O(1) expected, per resource [txn] held or
    waited on, found by its key: no view is rebuilt or compared. A
    resource with an empty wait queue costs nothing more; one with
    waiters is filtered and its head promoted. *)
val release_all : t -> txn:int -> int list

(** Current holders of a resource, as (txn, mode), sorted by txn. *)
val holders : t -> resource -> (int * mode) list

(** [held t ~txn resource] is the mode held, if any. *)
val held : t -> txn:int -> resource -> mode option

(** [blockers t ~txn] is the set of transactions [txn] currently waits
    for (empty when it has no queued request). It takes every shard
    mutex, but reads only the entries [txn] is queued on: the cost is
    proportional to [txn]'s queued requests, not to the lock table. *)
val blockers : t -> txn:int -> int list

(** [deadlock_cycle t ~txn] is a waits-for cycle through [txn], if one
    exists: [txn] first, each member waiting for the next, the last
    waiting for [txn]. A depth-first search backwards from [txn], over
    the edges into each node, under every shard mutex. Each node visited
    reads the queues of the resources it holds or waits on, so the cost
    follows the transactions that wait on [txn], transitively, not the
    queues ahead of it. A fresh waiter, queued last and holding nothing
    another transaction waits for, costs one node. *)
val deadlock_cycle : t -> txn:int -> int list option

(** True when [txn] has a queued (not yet granted) request. One lookup
    in [txn]'s stripe of the waits-for index; no shard is taken. *)
val is_waiting : t -> txn:int -> bool

(** Queued (not yet granted) requests of [txn], as (resource, mode),
    sorted. Takes only the shards of those resources, so it costs in
    proportion to [txn]'s queued requests. *)
val waits : t -> txn:int -> (resource * mode) list

(** Every live lock entry as (resource, holders, queue), sorted by
    resource, each entry's holders sorted by txn and its queue oldest
    first — the raw material for the wait-graph snapshot. *)
val dump : t -> (resource * (int * mode) list * (int * mode) list) list

val mode_to_string : mode -> string
val resource_to_string : resource -> string

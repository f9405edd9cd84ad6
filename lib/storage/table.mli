(** Heap tables: rows addressed by dense integer row ids, with
    maintained hash indexes.

    Row ids are assigned in insertion order and never reused, which
    gives deterministic scan order — important for reproducible
    experiment runs and for the deterministic-evaluation assumption the
    paper's serializability proof relies on (§C.1).

    Every mutator and every read path below except {!get}, {!cardinal},
    {!iter} and {!fold} runs under a per-table mutex, and reads return
    a result materialized under it: IS-locked readers and IX-locked
    writers may touch one table from different domains at once. The
    four direct accessors read the slots unguarded and are meant for
    quiescent callers (tests, tools after a run). *)

type t

type row_id = int

(** Turn on versioned mode for this table (one-way; the owning
    {!Catalog} does it once a snapshot-isolation transaction has been
    submitted): every row mutation additionally pushes a writer-tagged
    before-image onto the row's version chain, enabling the [_at]
    snapshot read paths below. Off — the default — chains are never
    touched and the table behaves exactly as the unversioned engine. *)
val enable_versioning : t -> unit

(** One committed-or-not physical write, as seen by the changelog:
    insert = [None -> Some], delete = [Some -> None], update = both. *)
type change = {
  c_before : Tuple.t option;
  c_after : Tuple.t option;
}

val create : ?name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** Monotonic write version: bumped by every row mutation (including
    rollback compensations) and by structural changes (new indexes,
    {!clear}). Equal versions imply an identical visible table state. *)
val version : t -> int

(** [changes_since t v] is the list of row changes applied after
    version [v] (any order), or [None] when the bounded changelog has
    been truncated past [v] or a structural change intervened — the
    caller must then assume everything changed. [Some []] iff the table
    is untouched since [v]. *)
val changes_since : t -> int -> change list option

(** [insert t row] checks the row against the schema and returns its
    fresh row id. [writer] tags the version-chain entry in versioned
    mode (0 — the default — is bootstrap/recovery, visible to every
    snapshot) and is ignored otherwise; likewise for the other
    mutators below. *)
val insert : ?writer:int -> t -> Tuple.t -> row_id

(** [get t id] is [Some row] for a live row, [None] for a deleted or
    never-assigned id. *)
val get : t -> row_id -> Tuple.t option

(** [delete t id] removes a live row and returns its old value. *)
val delete : ?writer:int -> t -> row_id -> Tuple.t option

(** [update t id row] replaces a live row, maintaining indexes, and
    returns the old value. *)
val update : ?writer:int -> t -> row_id -> Tuple.t -> Tuple.t option

(** [restore t id row] re-inserts a row under a specific id (used by
    transaction rollback and recovery). The id must be unoccupied but
    may be below the current high-water mark. *)
val restore : ?writer:int -> t -> row_id -> Tuple.t -> unit

(** Live row count. *)
val cardinal : t -> int

(** [iter f t] applies [f] to live rows in ascending row-id order. *)
val iter : (row_id -> Tuple.t -> unit) -> t -> unit

val fold : (row_id -> Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> (row_id * Tuple.t) list

(** Scan in ascending row-id order, materialized when called, so rows
    written during iteration are not observed. Row-read metrics are
    charged per element consumed; consume each sequence at most once. *)
val to_seq : t -> (row_id * Tuple.t) Seq.t

(** [add_index t ~positions] creates (and backfills) a hash index; a
    second call for the same positions is a no-op. *)
val add_index : t -> positions:int list -> unit

(** [add_ordered_index t ~position] creates (and backfills) an ordered
    index on one column, enabling {!range_lookup}. Idempotent. *)
val add_ordered_index : t -> position:int -> unit

(** [range_lookup t ~position ~lo ~hi] returns the live rows whose
    column at [position] falls in the interval, using an ordered index
    when one exists and a scan otherwise. Rows are in ascending
    (key, id) order when indexed, id order otherwise. *)
val range_lookup :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  (row_id * Tuple.t) list

(** Sequence form of {!range_lookup}; same caveats as {!to_seq}. *)
val range_lookup_seq :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  (row_id * Tuple.t) Seq.t

(** True when an ordered index exists on this column. *)
val has_ordered_index : t -> position:int -> bool

(** [lookup t ~positions key] uses an index on [positions] when one
    exists, else scans. Returns matching (id, row) pairs in id order. *)
val lookup : t -> positions:int list -> Value.t list -> (row_id * Tuple.t) list

(** Sequence form of {!lookup}; same caveats as {!to_seq}. Probes are
    canonicalized to sorted column positions, so WHERE-clause column
    order does not affect index discovery. *)
val lookup_seq :
  t -> positions:int list -> Value.t list -> (row_id * Tuple.t) Seq.t

(** Remove all rows (indexes kept, row ids keep growing). Version
    chains are dropped too. *)
val clear : t -> unit

(** {2 Snapshot reads (versioned mode)}

    [visible w] decides whether writer [w]'s effects belong to the
    caller's snapshot; the row state is reconstructed by undoing every
    invisible write along the version chain (newest first). Indexes
    reflect the live state only, so an indexed probe reads a candidate
    set: the index's ids plus every row with a non-empty version chain
    (which covers deleted slots and rows whose key changed since the
    snapshot). Each candidate is rebuilt as the snapshot sees it and
    filtered. Results are in ascending row-id order on every snapshot
    path, indexed or not. Each probe counts one index or scan lookup,
    as on the live paths, and row reads are charged per element
    consumed. *)

(** The row as the snapshot sees it, or [None] when no visible version
    exists. *)
val read_at : t -> row_id -> visible:(int -> bool) -> Tuple.t option

(** Snapshot scan in ascending row-id order, materialized eagerly. *)
val to_seq_at : t -> visible:(int -> bool) -> (row_id * Tuple.t) Seq.t

(** Snapshot {!lookup_seq}: probes are canonicalized like the live
    path; a hash index on the positions supplies the candidates, else
    the visible rows are filter-scanned. Ascending row-id order. *)
val lookup_seq_at :
  t ->
  positions:int list ->
  Value.t list ->
  visible:(int -> bool) ->
  (row_id * Tuple.t) Seq.t

(** Snapshot {!range_lookup_seq}: an ordered index on the column supplies
    the candidates, else the visible rows are filter-scanned. Ascending
    row-id order in both cases, unlike the indexed live path. *)
val range_lookup_seq_at :
  t ->
  position:int ->
  lo:Ordered_index.bound ->
  hi:Ordered_index.bound ->
  visible:(int -> bool) ->
  (row_id * Tuple.t) Seq.t

(** [gc_versions t ~obsolete] truncates each version chain at the
    newest entry whose writer satisfies [obsolete] (committed before
    the oldest live snapshot, or finished aborting): that entry's
    before-image and everything older are unreachable by any snapshot
    and are dropped. Returns the number of entries dropped (feeds the
    [storage.mvcc.versions_gcd] counter). *)
val gc_versions : t -> obsolete:(int -> bool) -> int

(** Total version-chain entries currently retained (0 once every
    transaction finished and {!gc_versions} ran — the entsim
    quiescence invariant). *)
val chain_entries : t -> int

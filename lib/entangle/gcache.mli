(** Dependency-tracked grounding cache.

    Every coordination round used to re-run {!Ground.compute} from
    scratch for every dormant entangled query, even though between
    rounds most of the database is untouched. This cache memoizes the
    expensive half of grounding — valuation enumeration — keyed by the
    query {e body} plus the host-variable bindings it references, so
    structurally identical queries issued by different transactions
    (the common case: per-instance tags live in the head/post, not the
    body) share one computation.

    Soundness rests on three pieces:

    - each miss records its {e read footprint} (tables scanned,
      [(positions, key)] point probes, [(position, bounds)] range
      probes) while the enumeration runs;
    - the storage layer gives every table a monotonic write version and
      a bounded per-write changelog ({!Ent_storage.Table.changes_since});
    - a cached entry is served only when, for every table it read,
      either the version is unchanged or no change since the recorded
      version intersects the footprint. Truncated changelogs, new
      indexes (plan changes) and dropped/re-created tables all
      invalidate conservatively.

    Grounding reads are quasi reads (§3.3.3): they take table-S locks
    and are re-validated by coordination rather than creating row-level
    read dependencies. A hit therefore replays the lock side effects
    through [touch] (same tables, first-read order) without re-reading
    any rows. *)

type t

(** [create catalog] makes an empty cache over [catalog]'s live
    tables. [max_entries] (default 4096) bounds the entry count: the
    cache resets wholesale when a miss finds that many entries. The
    cache holds valuations only; the grounding lists substituted from
    them live in the callers' memos. *)
val create : ?max_entries:int -> Ent_storage.Catalog.t -> t

(** What one caller kept from its last grounding through the cache:
    the query, its key, the entry that served it, and the grounding
    list substituted from that entry for the query. A task keeps its
    memo across rounds, so a dormant query that nothing changed is
    served without rebuilding its key or substituting again. *)
type memo

(** [compute t ?memo ~access ~touch ~env query] returns [query]'s
    groundings, whether they were served from cache, and the memo to
    pass with the caller's next request.

    Hit or miss is decided by the key — the body, the host bindings in
    [env] it mentions, and [limit] — and by validation: an entry filed
    under the key is served when no write since its last validation
    touched its read footprint. On a hit [touch] is called with the
    footprint's table names in first-read order so the caller can
    re-acquire grounding locks — it must raise (like the
    blocked/deadlocked access reads would) to veto the hit. On a miss
    the enumeration runs through [access], recording the footprint, and
    its entry replaces whatever the key held.

    [memo] changes only the cost of a request, never its verdict,
    groundings, counters or [touch] calls. When [query] is physically
    the memo's query and the memo's host bindings still hold in [env],
    the memo's key is used as is; while the memo's entry is still filed
    under that key (an entry stops being filed when it is invalidated,
    when a reset drops it, or when a later miss on its key replaces
    it), the table is not searched and a hit serves the memo's list.
    Any other memo is ignored.

    [bypass] (default false) skips the cache entirely — no lookup, no
    insertion, no hit/miss accounting, and [memo] is returned untouched
    — and runs the enumeration fresh through [access]. Used for
    snapshot-isolation grounding, whose reads see an older snapshot
    than the live table versions the footprint validation is keyed to.
    @raise Ground.Ground_error and whatever [access]/[touch] raise. *)
val compute :
  t ->
  ?limit:int ->
  ?bypass:bool ->
  ?memo:memo ->
  access:Ent_sql.Eval.access ->
  touch:(string list -> unit) ->
  env:Ent_sql.Eval.env ->
  Ir.t ->
  Ground.grounding list * bool * memo option

(** (hits, misses, invalidations) since [create]. *)
val stats : t -> int * int * int

(** [key_hash ~env ~limit body] is the hash under which the cache files
    a grounding of [body]. It mixes in every literal and host binding
    of [body]. Exported for the hash-spread test only. *)
val key_hash : env:Ent_sql.Eval.env -> limit:int -> Ent_sql.Ast.cond -> int

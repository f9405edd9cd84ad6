(** Crash recovery from the write-ahead log.

    Recovery is redo-based: after a crash the volatile database is
    rebuilt by replaying, in log order, the writes of every transaction
    that *effectively* committed. "Effectively" implements the paper's
    entanglement-aware rule (§4): a committed transaction whose
    entanglement group contains a member that did not commit before the
    crash is rolled back too, together with (transitively) any later
    committed transaction that read or overwrote its writes. *)

open Ent_storage

type analysis = {
  committed : int list;  (** transactions with a [Commit] record *)
  aborted : int list;
  incomplete : int list;  (** begun, neither committed nor aborted *)
  groups : int list list;  (** transitive entanglement groups *)
  survivors : int list;  (** transactions whose effects are replayed *)
  group_victims : int list;
      (** committed transactions rolled back by the entanglement rule
          or by cascading from one *)
  pool : string list;  (** latest dormant-pool snapshot, oldest first *)
}

(** Classify the transactions of a log. The bootstrap pseudo-transaction
    (id 0) is always considered committed. *)
val analyze : Wal.record list -> analysis

(** [apply_image ?writer table row ~before ~after] applies one logged
    write's image pair to [row]: an insert ([None], [Some]) restores
    the row under its id, an update replaces it, a delete removes it.
    Redo applies a [Write] record's pair; undo applies it swapped.
    [writer] tags the version-chain entry as in {!Ent_storage.Table}. *)
val apply_image :
  ?writer:int -> Table.t -> int -> before:Tuple.t option ->
  after:Tuple.t option -> unit

(** [replay records] rebuilds the database: creates tables from
    [Create] records and applies the writes of [survivors] in log
    order. Returns the catalog and the analysis. *)
val replay : Wal.record list -> Catalog.t * analysis

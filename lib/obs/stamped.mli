(** A per-domain buffer that drains in one total order.

    Parallel phases take observability off the workers' hot path: each
    emission goes to a shard for its executing domain
    ([domain land 15]) instead of through a shared mutex, and the
    coordinator merges the shards at the phase boundary. {!push} takes
    a global order stamp with one atomic fetch-and-add, so if push A
    happens-before push B (program order on one domain, or a lock
    release ordered before an acquire) A's stamp is smaller. {!drain}
    sorts by stamp, which makes it an exact linearization of push
    order. The engine's observer deferral and the event log's buffered
    mode are both built on it. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Stamp the value and append it to the calling domain's shard. *)

val drain : 'a t -> 'a list
(** Every value pushed since the last drain, in stamp order; empties
    the shards. Call it from one domain once pushes have quiesced. *)

val clear : 'a t -> unit
(** Drop every buffered value and restart the stamps. *)

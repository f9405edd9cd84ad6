(** Recording real executions as formal schedules.

    Subscribe {!on_engine_event} and {!on_entangle} with
    [Ent_core.Manager.observe]; {!history} then returns the execution
    as a {!History.t} (quasi-reads not yet expanded — use
    {!History.expand_quasi_reads}). The recorder keeps every operation;
    for bounded memory, feed a {!Certify} instead. *)

type t

val create : unit -> t

val on_engine_event : t -> Ent_txn.Engine.event -> unit

(** [on_entangle t ~event participants] where each participant is
    [(txn, grounding_tables)] — matching the scheduler hook's payload. *)
val on_entangle : t -> event:int -> (int * string list) list -> unit

(** Operations recorded so far, oldest first. Transactions still
    running have no terminal operation yet; filter or complete before
    validity checking. *)
val history : t -> History.t

(** The recorded history restricted to transactions that terminated,
    i.e. a complete schedule suitable for the checkers. *)
val completed_history : t -> History.t

(** Interactive entangled transactions (§4, "Interactivity" — future
    work in the paper, implemented here as an extension).

    Interactive transactions are created by users online, statement by
    statement; subsequent statements are constructed dynamically from
    earlier results. An interactive user is willing to wait a while at
    an entangled query: the query parks at the hub and is re-evaluated
    whenever new entangled queries arrive, until a partner shows up or
    the user gives up ({!cancel}). This is the model the paper suggests
    for social games.

    A {!hub} owns a {!Scheduler.t} over the engine it is given. Each
    user holds a {!session}, which is a task of that scheduler opened
    with {!Scheduler.open_task}: it never enters the dormant pool, so
    its transaction stays open across {!execute}, {!poll} and
    {!commit}. Statements run through {!Executor.exec}, the batch
    scheduler's own statement runner. Classical statements execute
    immediately (their replies carry rows/counts); an entangled query
    either answers immediately (a partner was already parked) or
    returns [Parked], after which {!poll} reports progress.

    Parked queries are grounded through the scheduler's grounding
    cache and coordinated by its coordination phase; commits go
    through its commit phase. So commit respects group commit — a
    session that entangled commits only together with its partners:
    [commit] returns [Commit_pending] until the whole group has asked
    to commit, at which point all commit atomically — and the hub gets
    the batch path's constraint checks, [core.scheduler.group_commit]
    fault site, [Begin]/[Answer]/[Group_commit]/[Finalize] events,
    {!Scheduler.outcome} and {!Scheduler.wait_graph}. Entanglement
    event ids come from the hub's scheduler and start at 1, so a hub
    needs an engine of its own: no caller shares an engine between a
    hub and a {!Manager}. Observers attach through {!observe}, the
    same path as {!Manager.observe}.

    Sessions run under Strict 2PL, with the lock protocol of the hub's
    {!Isolation.t}. *)

open Ent_entangle

type hub
type session

type reply =
  | Rows of Ent_storage.Value.t array list
  | Affected of int
  | Answered of Ir.ground_atom list  (** entangled answer tuples *)
  | Parked  (** entangled query waiting for partners *)
  | Committed
  | Commit_pending  (** waiting for entanglement partners to commit *)
  | Blocked  (** lock conflict: retry the statement via {!poll} or later *)
  | Aborted of string

val create_hub : ?isolation:Isolation.t -> Ent_txn.Engine.t -> hub

(** The hub's scheduler (outcomes, wait graph, statistics). *)
val scheduler : hub -> Scheduler.t

(** Attach an observer pair (e.g. a {!Ent_schedule.Certify}
    certifier) through {!Scheduler.observe}. Attach before the first
    {!start} so the observer sees every transaction begin. *)
val observe :
  hub ->
  on_event:(Ent_txn.Engine.event -> unit) ->
  on_entangle:(event:int -> (int * string list) list -> unit) ->
  unit

(** Open a new interactive transaction. *)
val start : hub -> session

(** Execute one statement. [Entangled] statements may answer
    immediately, park, or block; [Rollback] aborts the session.
    @raise Invalid_argument if the session already finished. *)
val execute : session -> string -> reply

(** Re-check a parked entangled query, a blocked statement, or a
    pending commit. *)
val poll : session -> reply

(** Ask to commit. Returns [Committed], [Commit_pending] (entangled
    partners not ready), or [Aborted] if the group has failed. *)
val commit : session -> reply

(** Abort the transaction. Entanglement partners are aborted too
    (widowed-transaction prevention), and their next {!poll} reports
    [Aborted]. *)
val cancel : session -> unit

(** Answer tuples of the session's latest entangled query. *)
val answers : session -> Ir.ground_atom list

(** Host-variable environment (to inspect [@var] bindings). *)
val env : session -> Ent_sql.Eval.env

(** Number of queries currently parked at the hub. *)
val parked_count : hub -> int

(** Schedule certification: the one checker of Appendix C's isolation
    requirements and a sanitizer for the scheduler.

    Subscribe {!on_engine_event} / {!on_entangle} next to a
    {!Recorder} (or feed a complete schedule through {!replay}) and the
    certifier maintains the committed-prefix conflict graph
    incrementally, flagging as the run unfolds:

    - [conflict-cycle]: the conflict graph over committed transactions
      (quasi-reads expanded, C.2) acquired a cycle;
    - [read-from-aborted]: a committed transaction read an object after
      an aborted transaction wrote it and before that transaction
      aborted (C.3); a read after the abort sees the restored value;
    - [widowed]: an entanglement group with both an aborted and a
      committed member (C.4);
    - [unrepeatable-quasi-read]: a quasi-read was invalidated by a
      foreign write and then re-read (Figure 3b) — counting writes and
      re-reads that fall between the grounding read and the
      entanglement that turns it into a quasi-read;
    - [unanswered-ground]: a transaction committed between a grounding
      read and its entanglement (C.1 validity);
    - [ground-gap]: a read or write between a grounding read and its
      entanglement (C.1 validity);
    - [post-terminal] / [double-terminal]: operations after, or more
      than one, terminal operation (C.1 validity).

    {b Mixed isolation levels.} Transactions declared as
    {!Ent_txn.Engine.Snapshot} (via [Ev_begin], {!set_level} or the
    [levels] argument of {!replay}) are judged against snapshot
    isolation instead of strict serializability: their reads are
    repositioned to the snapshot anchor (the begin position, or the
    first operation when the stream carries no begins), re-reads after
    a foreign write are not unrepeatable (same snapshot), and two SI
    checks are added — [si-lost-update], a committed SI write to a row
    another transaction committed after the snapshot was taken
    (first-committer-wins must have aborted it), and
    [si-read-uncommitted], the SI rename of [read-from-aborted]
    (version visibility should have hidden the aborted write). A
    conflict cycle whose members are all SI and whose edges are all
    pure read-write antidependencies is write-skew — allowed by SI —
    and is reported through {!anomalies} as [si-write-skew] without
    failing certification.

    Instead of the history, the certifier keeps per-object first/last
    access positions per transaction, every write's (object, position)
    indexed by transaction and by table, every quasi-read, and every
    conflict edge discovered; memory therefore grows with the number
    of writes, quasi-reads and conflicting pairs of a run, not with its
    reads. Conflict edges activate when both endpoints commit; each
    activation runs an incremental reachability check, so a cycle is
    reported at the commit that closes it. *)

type violation = {
  code : string;
  detail : string;
}

type stats = {
  ops : int;  (** data operations observed (quasi-reads included) *)
  txns : int;  (** distinct transactions seen *)
  committed : int;
  aborted : int;
  edges : int;  (** active conflict edges between committed transactions *)
  quasi_reads : int;
}

type t

val create : unit -> t

(** Feed one schedule operation. Operations must arrive in schedule
    order; [Entangle] expands the participants' buffered grounding
    reads into quasi-reads retroactively, exactly like
    {!History.expand_quasi_reads}. *)
val on_op : t -> History.op -> unit

(** Engine observer, attached with [Ent_core.Manager.observe]: data
    events go through {!History.of_engine_event} (as the recorder's do);
    [Ev_begin] declares the level and anchors a snapshot. *)
val on_engine_event : t -> Ent_txn.Engine.event -> unit

(** Adapter for the scheduler's entanglement hook — same payload as
    {!Recorder.on_entangle}. *)
val on_entangle : t -> event:int -> (int * string list) list -> unit

(** Was the transaction declared {!Ent_txn.Engine.Snapshot}? *)
val is_si : t -> int -> bool

(** Violations found so far, in detection order (deduplicated; at most
    {!max_violations} retained). *)
val violations : t -> violation list

(** SI-permitted anomalies ([si-write-skew]) found so far: named and
    reported, but not certification failures — {!ok} ignores them. *)
val anomalies : t -> violation list

val max_violations : int
val ok : t -> bool
val stats : t -> stats

(** Replay a complete history through a fresh certifier — the entry
    point for history files and tests. [levels] declares
    per-transaction isolation ahead of replay (2PL when absent). A
    recorded run should be judged by the certifier that watched it
    instead: only the live stream carries [Ev_begin], which anchors
    snapshot reads where the snapshot was taken rather than at the
    transaction's first operation. *)
val replay : ?levels:(int * Ent_txn.Engine.level) list -> History.t -> t

(** One-paragraph certification report: ok/violation count, stats,
    then each violation on its own line. *)
val pp_report : Format.formatter -> t -> unit

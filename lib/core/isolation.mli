(** Isolation levels for entangled transactions (§3.3).

    Full entangled isolation needs all three mechanisms:
    - classical Strict 2PL read/write locking (classical anomalies),
    - table-level shared locks held by grounding reads until commit
      (unrepeatable quasi-reads, Figure 3b),
    - group commit over entanglement groups (widowed transactions,
      Figure 3a).

    Relaxing a flag re-admits exactly the corresponding anomaly class,
    which is how the ablation experiments expose each anomaly. *)

type t = {
  lock_classical_reads : bool;
  lock_grounding_reads : bool;
  group_commit : bool;
}

(** Everything on: entangled-isolated executions (Definition C.5). *)
val full : t

(** No group commit: widowed transactions become possible. *)
val no_group_commit : t

(** No grounding-read table locks: unrepeatable quasi-reads possible. *)
val no_grounding_locks : t

(** Write locks only (reads unlocked): classical read anomalies too. *)
val read_uncommitted : t

val pp : Format.formatter -> t -> unit

(** Per-transaction levels of a script's submissions. *)
type levels =
  | All_2pl
  | All_si
  | Mixed  (** odd submissions under snapshot isolation, even under 2PL *)

(** The isolation names the command-line tools accept: [full],
    [no-group-commit], [no-grounding-locks] and [read-uncommitted] (the
    2PL presets, [All_2pl]); [si] or [snapshot] ([full], [All_si]);
    [mixed] ([full], [Mixed]). *)
val of_name : string -> (t * levels, string) result

(** [level levels n] is the level of the [n]-th submission, from 1. *)
val level : levels -> int -> Ent_txn.Engine.level

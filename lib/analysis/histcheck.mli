(** History checking: a report on a schedule against the Appendix C
    requirements, with a concrete witness for each violation.

    The isolation requirements — conflict cycles over committed
    transactions with quasi-reads expanded (C.2), reads from aborted
    transactions (C.3), widowed transactions (C.4), unrepeatable
    quasi-reads (Figure 3b) and, for snapshot members, the SI checks —
    are decided by {!Ent_schedule.Certify}; this module adds schedule
    validity (C.1, from {!Ent_schedule.History.validity_errors}) and,
    optionally, oracle-serializability (Definition C.7). *)

type violation = {
  code : string;  (** the certifier's code, e.g. ["conflict-cycle"] *)
  requirement : string;  (** the requirement violated *)
  witness : string;  (** the concrete operations/transactions involved *)
}

type report = {
  ops : int;
  txns : int list;
  committed : int list;
  aborted : int list;
  validity : string list;  (** C.1 validity errors *)
  violations : violation list;
  allowed : violation list;  (** anomalies snapshot isolation permits *)
  level : [ `Full | `No_widow | `Loose ];
  serializable : bool option;  (** [None] = not checked *)
}

(** [check c h] reports on schedule [h] as judged by certifier [c],
    which must have seen [h]: the live certifier of a recorded run, or
    {!Ent_schedule.Certify.replay} of a history file. The certifier's
    own C.1 codes are dropped in favour of [h]'s (stricter) validity
    errors.

    [`Auto] (default) runs the serializability oracle only when it is
    exact (at most 7 committed transactions — beyond that it falls back
    to a single topological order and can under-approximate); [`Auto]
    and [`On] skip it when a transaction runs under snapshot isolation,
    which the oracle does not model. *)
val check :
  ?serializability:[ `Auto | `On | `Off ] ->
  Ent_schedule.Certify.t ->
  Ent_schedule.History.t ->
  report

(** Valid, free of violations, and not proven non-serializable. *)
val ok : report -> bool

val pp : Format.formatter -> report -> unit

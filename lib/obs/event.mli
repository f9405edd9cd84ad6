(** Structured causal event log.

    Where the metrics registry ({!Obs}) answers "how much, in total?",
    this module answers "what happened to transaction T, in order, and
    because of whom?". Every layer emits {!kind} events stamped with
    the monotonic clock, the simulated clock, the scheduler run, and
    the transaction/task they belong to; {!Attrib} folds them into
    per-transaction latency attribution and {!Trace} exports them as a
    Chrome trace-event JSON for Perfetto.

    Two identifier spaces meet here. The {e task} id is the scheduler's
    unit of work, stable across retries; the {e txn} id is the engine's
    transaction, fresh per attempt (and per statement under
    autocommit). Layers below the scheduler only know the txn id, so
    {!register_txn} maintains the txn→task mapping and {!emit} resolves
    the task automatically when only a txn is given.

    Logging is off by default and costs one branch per call site when
    off. Events land in a bounded ring ({!set_capacity}); when it
    wraps, the oldest events are dropped and {!dropped} counts them. *)

type kind =
  | Begin  (** engine transaction started for this task/attempt *)
  | Ready  (** program finished its body; awaiting group commit *)
  | Commit  (** engine transaction committed *)
  | Abort of { reason : string }  (** engine transaction rolled back *)
  | Finalize of { outcome : string }
      (** scheduler retired the task ([committed] / [timed_out] /
          [rolled_back] / [errored]); terminal per task *)
  | Lock_wait of { resource : string; holders : int list }
      (** blocked on [resource]; [holders] are the blocking txn ids *)
  | Lock_grant  (** previously blocked lock granted; task resumes *)
  | Entangle_block  (** reached an entangled query with no answer yet *)
  | Answer of { empty : bool }
      (** coordination answered the entangled query ([empty] = the
          CHOOSE NULL branch: no partner, proceed alone) *)
  | Coord_round of { participants : int list }
      (** coordination round over the dormant pool; [participants] are
          the task ids whose entangled queries were considered *)
  | Partner_match of { event : int; peers : int list }
      (** this task was matched into entanglement group [event]
          together with tasks [peers] — one causal edge per peer *)
  | Group_commit of { members : int list }
      (** atomic group commit of the tasks [members] *)
  | Widow_prevention
      (** answered task pulled back because a group peer cannot
          commit in this run (paper §3.4) *)
  | Pool_enter  (** task entered the dormant pool (submit or repool) *)
  | Pool_exit  (** task left the pool to execute in a run *)
  | Run_start of { pool : int }  (** scheduler run began; pool size *)
  | Run_end of { dormant : int }  (** run ended; tasks left dormant *)
  | Wal_append of { lsn : int }  (** WAL record appended durably *)

type t = {
  seq : int;  (** global emission order, dense from 0 per {!reset} *)
  t_mono : float;  (** {!Clock.monotonic} seconds at emission *)
  t_sim : float;  (** simulated seconds ({!set_sim_clock}), else 0 *)
  run : int;  (** scheduler run in progress, 0 before the first *)
  txn : int;  (** engine txn id, [-1] when unknown *)
  task : int;  (** scheduler task id, [-1] when unknown *)
  domain : int;  (** OCaml domain that emitted the event (0 = initial
                     domain; always 0 in deterministic mode) *)
  kind : kind;
}

val set_logging : bool -> unit
val logging : unit -> bool

val set_capacity : int -> unit
(** Resize the ring (clears it). Default 65536 events. *)

val reset : unit -> unit
(** Clear events, sequence numbers, run counter, and the txn→task
    registry. Called by [Obs.reset]. *)

val emit : ?txn:int -> ?task:int -> kind -> unit
(** Record an event now. No-op when logging is off. When [task] is
    omitted but [txn] is registered, the task is resolved from the
    registry. *)

val set_buffered : bool -> unit
(** Switch emission into per-domain buffering: each {!emit} records its
    true timestamps and goes to a {!Stamped} buffer instead of taking
    the shared ring mutex. The scheduler enables this around parallel
    phases and calls {!flush_buffered} at the phase boundary. *)

val flush_buffered : unit -> unit
(** Merge all buffered events into the ring in {!Stamped} order — an
    exact linearization of emission order, so per-txn event order (and
    cross-txn lock hand-off order) is preserved. Sequence numbers are
    assigned at flush. No-op with nothing buffered. *)

val register_txn : txn:int -> task:int -> unit
(** Associate a fresh engine txn with the scheduler task running it. *)

val task_of_txn : int -> int option

val set_sim_clock : (unit -> float) -> unit
(** Install the simulated-time source (the scheduler's pool clock). *)

val new_run : unit -> int
(** Advance the run counter; subsequent events carry the new id. *)

val current_run : unit -> int

val events : unit -> t list
(** Retained events, oldest first. *)

val dropped : unit -> int
(** Events lost to ring wrap-around since the last {!reset}. *)

val recent : ?ids:int list -> last:int -> unit -> t list
(** Up to [last] most recent events, oldest first. With [ids], only
    events whose [txn] {e or} [task] is in [ids] (ids name either
    space; violations mix them). *)

val kind_name : kind -> string
val kind_json : kind -> Json.t
(** Payload fields of the kind as a JSON object (possibly empty). *)

val to_json : t -> Json.t
(** [{seq, t_sim, run, txn, task, domain, kind, args}] — one event as
    JSON, for the flight recorder. *)

val render : t -> string
(** One-line human rendering, for repro output and debugging. *)

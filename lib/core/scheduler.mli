(** The run-based execution model for non-interactive entangled
    transactions (§4).

    Arriving transactions enter a dormant pool. A run takes every
    dormant transaction, executes each until it blocks on an entangled
    query (or a lock), evaluates all pending entangled queries
    together, resumes the answered ones, and repeats until nobody can
    proceed. Transactions that reach COMMIT are committed as soon as
    their whole entanglement group is ready (group commit; Figure 4:
    Mickey and Minnie commit while Donald is still blocked).
    Transactions still blocked at the end of the run are aborted and
    returned to the pool for a later run; a transaction whose timeout
    has expired fails permanently.

    Time is simulated: statement costs accrue on the transaction's
    connection ({!Ent_sim.Pool}), entangled query evaluation is a
    centralized barrier phase, and the figure benchmarks read
    {!now} after driving a workload through. *)

type trigger =
  | Every_arrivals of int
      (** start a run once this many new transactions arrived (the
          paper's run frequency [f]) *)
  | Every_seconds of float
      (** start a run when at least this much simulated time has passed
          since the previous run ended and work is waiting (§4: "the
          frequency can be explicitly given as a time interval") *)
  | Manual  (** runs start only via {!run_once} *)

type config = {
  isolation : Isolation.t;
  connections : int;
  costs : Ent_sim.Cost.t;
  trigger : trigger;
  snapshot_pool : bool;  (** persist dormant pool to the WAL after each run *)
  runner : Ent_par.Pool.t option;
      (** [None] (the default) is the deterministic single-domain mode.
          [Some pool] executes the step phase and the grounding phase of
          each run on the pool's domains (DESIGN.md §9): independent
          transactions take no shared lock thanks to the sharded lock
          manager, per-table storage mutexes and the gcache mutex.
          Wake-ups, group commits, coordination rounds and all
          simulated-time accounting remain on the coordinator. *)
}

val default_config : config

type outcome =
  | Committed
  | Timed_out
  | Rolled_back  (** the program executed ROLLBACK *)
  | Errored of string

type stats = {
  mutable runs : int;
  mutable commits : int;
  mutable repooled : int;  (** aborted-and-returned-to-pool occurrences *)
  mutable timeouts : int;
  mutable entangle_events : int;
  mutable deadlocks : int;
  mutable si_aborts : int;
      (** snapshot transactions aborted by first-committer-wins
          validation (at commit or mid-statement) *)
  mutable coordination_rounds : int;
  mutable coord_wall_s : float;
      (** wall-clock (monotonic, not simulated) seconds spent in the
          grounding+coordination phase; bench reports it as each
          scale-up point's [coordination_share] *)
}

type t

val create : ?config:config -> Ent_txn.Engine.t -> t

val engine : t -> Ent_txn.Engine.t
val config : t -> config

(** Attach an observer pair without displacing observers already
    installed: [on_event] receives the engine's data events
    ({!Ent_txn.Engine.add_on_event}); [on_entangle] is called at each
    entanglement operation with the event id and, per participant, its
    transaction id and the tables its grounding read — the information
    a schedule recorder needs to emit [E] operations and quasi-reads.
    Every hook runs, in installation order. {!Manager.observe} and
    {!Interactive.observe} attach through this. *)
val observe :
  t ->
  on_event:(Ent_txn.Engine.event -> unit) ->
  on_entangle:(event:int -> (int * string list) list -> unit) ->
  unit

(** [submit t program] adds a transaction to the dormant pool and
    returns its task id. May trigger a run, per the configured
    trigger. *)
val submit : t -> Program.t -> int

(** Execute one run over the current dormant pool (no-op when empty). *)
val run_once : t -> unit

(** Run until the dormant pool is empty or a run makes no progress
    (every remaining transaction failed to find a partner again).
    [max_runs] is a safety bound (default 10_000). *)
val drain : ?max_runs:int -> t -> unit

(** Final outcome of a task, if decided. *)
val outcome : t -> int -> outcome option

val results : t -> (int * outcome) list

(** The task ids currently waiting in the dormant pool. *)
val dormant : t -> int list

(** The programs currently waiting in the dormant pool (for external
    persistence, e.g. checkpoint files). *)
val dormant_programs : t -> Program.t list

(** Answer tuples a task received (empty until answered). *)
val answers_of : t -> int -> Ent_entangle.Ir.ground_atom list

(** Simulated time (seconds). *)
val now : t -> float

(** Let wall-clock time pass with no work arriving (e.g. waiting out a
    transaction timeout). *)
val advance_time : t -> float -> unit

val stats : t -> stats

(** Grounding-cache (hits, misses, invalidations) since {!create}
    ({!Ent_entangle.Gcache.stats} of the scheduler's own cache). *)
val gcache_stats : t -> int * int * int

(** Snapshot of who is blocked on whom and why: every unfinished task,
    with lock-wait edges (contested resource and holder mode) and
    entanglement-group edges from the most recent run. Meaningful both
    at quiescence (dormant tasks awaiting partners) and after a crash
    (stranded lock holders). *)
val wait_graph : t -> Waitgraph.t

(** {2 Driving tasks outside runs}

    The interactive hub ({!Interactive}) keeps its sessions as tasks
    that never enter the dormant pool: it opens each one, feeds it
    statements through {!Executor.exec}, and advances them with the
    same commit and coordination phases a run uses. *)

(** A set of live tasks that the phases below iterate in list order. *)
type run

val run_of : Executor.task list -> run

(** [open_task t program] allocates a task id (shared with {!submit}),
    indexes the task for {!outcome}, {!answers_of} and {!wait_graph},
    and begins its transaction. The task never enters the dormant
    pool, so no run starts, repools or ends it. *)
val open_task : t -> Program.t -> Executor.task

(** Commit every [Ready] task whose live entanglement group is all
    [Ready] (group commit), after first-committer-wins validation and
    the integrity constraints; a group that fails either is aborted
    and finalized. Emits [Group_commit] and hits the
    [core.scheduler.group_commit] fault site per member commit. *)
val commit_phase : t -> run -> unit

(** Ground every [Waiting_entangled] task through the grounding cache,
    evaluate them together, perform one entanglement operation per
    answered component (calling the {!observe} hooks) and deliver the
    answers. A grounding that waits on a lock leaves its task
    [Waiting_lock] with no pending query; one that fails aborts the
    task's transaction and leaves it [Failed]. *)
val coordinate_phase : t -> run -> unit

(** [abort_group t task outcome] aborts the transaction of [task] and,
    under group commit, of every unfinished member of its entanglement
    group, in one reverse undo pass, and finalizes each with
    [outcome]. Tasks already finalized are left alone. For tasks opened
    with {!open_task}: entanglement groups of runs are reset at each
    run start. *)
val abort_group : t -> Executor.task -> outcome -> unit

open Ent_entangle
module Obs = Ent_obs.Obs
module Event = Ent_obs.Event
module Timeseries = Ent_obs.Timeseries
module Fault = Ent_fault.Injector

(* Injection points: crashes between scheduler steps and between the
   individual commits of a group commit (the widow-prevention hot
   spot), lost dormant-pool snapshots, and forced client timeouts on
   pooled transactions. *)
let s_step = Fault.site "core.scheduler.step"
let s_group_commit = Fault.site "core.scheduler.group_commit"
let s_pool_snapshot = Fault.site "core.scheduler.pool_snapshot"
let s_timeout = Fault.site "core.entangle.timeout"

let m_runs = Obs.counter "core.scheduler.runs"
let m_submitted = Obs.counter "core.scheduler.submitted"
let m_timeouts = Obs.counter "core.scheduler.timeouts"
let m_deadlocks = Obs.counter "core.scheduler.deadlocks"
let m_widow_preventions = Obs.counter "core.scheduler.widow_preventions"
let m_run_length = Obs.histogram "core.scheduler.run_length"
let m_group_size = Obs.histogram "core.commit.group_size"
let m_dormant = Obs.gauge "core.pool.dormant"
let m_repooled = Obs.counter "core.pool.repooled"
let m_coord_rounds = Obs.counter "core.coordinate.rounds"
let m_coord_batch = Obs.histogram "core.coordinate.batch"
let m_blocked = Obs.histogram "core.entangle.blocked_s"
let m_txn_latency = Obs.histogram "core.scheduler.txn_latency_s"

let m_si_aborts = Obs.counter "txn.si_aborts"

type trigger =
  | Every_arrivals of int
  | Every_seconds of float
  | Manual

type config = {
  isolation : Isolation.t;
  connections : int;
  costs : Ent_sim.Cost.t;
  trigger : trigger;
  snapshot_pool : bool;
  runner : Ent_par.Pool.t option;
  timeseries : Timeseries.t option;
}

let default_config =
  {
    isolation = Isolation.full;
    connections = 100;
    costs = Ent_sim.Cost.default;
    trigger = Every_arrivals 1;
    snapshot_pool = false;
    runner = None;
    timeseries = None;
  }

type outcome =
  | Committed
  | Timed_out
  | Rolled_back
  | Errored of string

type stats = {
  mutable runs : int;
  mutable commits : int;
  mutable repooled : int;
  mutable timeouts : int;
  mutable entangle_events : int;
  mutable deadlocks : int;
  mutable si_aborts : int;
  mutable coordination_rounds : int;
  mutable coord_wall_s : float;
}

type t = {
  engine : Ent_txn.Engine.t;
  config : config;
  pool : Ent_sim.Pool.t;
  groups : Group.t;
  gcache : Gcache.t;
  dormant : Executor.task Queue.t;  (* oldest first *)
  mutable arrivals_since_run : int;
  mutable next_task : int;
  mutable next_event : int;
  outcomes : (int, outcome) Hashtbl.t;
  mutable result_order : int list;  (* task ids, newest first *)
  task_index : (int, Executor.task) Hashtbl.t;
  stats : stats;
  mutable on_entangle : (event:int -> (int * string list) list -> unit) option;
  mutable next_conn : int;
  mutable last_run_end : float;
}

let create ?(config = default_config) engine =
  let t =
    {
    engine;
    config;
    pool = Ent_sim.Pool.create ~connections:config.connections;
    groups = Group.create ();
    gcache = Gcache.create (Ent_txn.Engine.catalog engine);
    dormant = Queue.create ();
    arrivals_since_run = 0;
    next_task = 1;
    next_event = 1;
    outcomes = Hashtbl.create 64;
    result_order = [];
    task_index = Hashtbl.create 64;
    stats =
      {
        runs = 0;
        commits = 0;
        repooled = 0;
        timeouts = 0;
        entangle_events = 0;
        deadlocks = 0;
        si_aborts = 0;
        coordination_rounds = 0;
        coord_wall_s = 0.0;
      };
      on_entangle = None;
      next_conn = 0;
      last_run_end = 0.0;
    }
  in
  (* Events carry simulated time alongside the monotonic stamp; the
     newest scheduler owns the clock (tests and tools run one at a
     time). *)
  Event.set_sim_clock (fun () -> Ent_sim.Pool.now t.pool);
  t

let engine t = t.engine
let config t = t.config

let observe t ~on_event ~on_entangle =
  Ent_txn.Engine.add_on_event t.engine on_event;
  match t.on_entangle with
  | None -> t.on_entangle <- Some on_entangle
  | Some g ->
    t.on_entangle <-
      Some
        (fun ~event participants ->
          g ~event participants;
          on_entangle ~event participants)

let now t = Ent_sim.Pool.now t.pool

(* Telemetry sample of the config's series: one branch when none. *)
let sample t =
  match t.config.timeseries with
  | None -> ()
  | Some series -> Timeseries.sample series (now t)

let advance_time t seconds = Ent_sim.Pool.advance_to t.pool (now t +. seconds)
let stats t = t.stats

let outcome t task_id = Hashtbl.find_opt t.outcomes task_id

let results t =
  List.rev_map
    (fun id -> (id, Hashtbl.find t.outcomes id))
    t.result_order

let dormant t =
  List.of_seq
    (Seq.map (fun (task : Executor.task) -> task.task_id) (Queue.to_seq t.dormant))

let dormant_programs t =
  List.of_seq
    (Seq.map (fun (task : Executor.task) -> task.program) (Queue.to_seq t.dormant))

let gcache_stats t = Gcache.stats t.gcache

let answers_of t task_id =
  match Hashtbl.find_opt t.task_index task_id with
  | Some task -> task.answers
  | None -> []

let outcome_name = function
  | Committed -> "committed"
  | Timed_out -> "timed_out"
  | Rolled_back -> "rolled_back"
  | Errored _ -> "errored"

let finalize t (task : Executor.task) outcome =
  Hashtbl.replace t.outcomes task.task_id outcome;
  (* [task_index] keeps finished tasks: let go of what they derived *)
  task.translated <- None;
  task.grounded <- None;
  t.result_order <- task.task_id :: t.result_order;
  (* Same endpoints as the attribution report (Pool_enter at submit,
     Finalize here), so the two are cross-checkable. *)
  if outcome = Committed then
    Obs.observe m_txn_latency (now t -. task.arrival);
  Event.emit ~txn:task.txn ~task:task.task_id
    (Event.Finalize { outcome = outcome_name outcome })

let drain_work t (task : Executor.task) =
  if task.work > 0.0 then begin
    Ent_sim.Pool.add_work t.pool task.conn task.work;
    task.work <- 0.0
  end

(* --- the run loop ---

   A run is a loop of phases over the tasks it took from the dormant
   pool (§4): runnable tasks step until they block, lock waiters wake,
   ready groups commit and, when none of these moved a task, pending
   entangled queries are grounded and coordinated together. A round
   that moves nothing ends the run: stragglers abort and return to the
   pool. [run_once] drives the phases below over one [run] record. *)

type run = {
  tasks : Executor.task list;  (* pool order; every phase iterates it *)
  alive : (int, Executor.task) Hashtbl.t;
      (* tasks still in the run, by id: removal is O(1) and leaves
         [tasks], and so the deterministic order, untouched *)
  rank : (int, int) Hashtbl.t;  (* task id -> position in [tasks] *)
  mutable progress : bool;  (* some phase moved a task this round *)
}

let run_of tasks =
  let n = List.length tasks in
  let r = { tasks; alive = Hashtbl.create n; rank = Hashtbl.create n; progress = false } in
  List.iteri
    (fun i (task : Executor.task) ->
      Hashtbl.replace r.alive task.task_id task;
      Hashtbl.replace r.rank task.task_id i)
    tasks;
  r

let iter_live r f =
  List.iter
    (fun (task : Executor.task) -> if Hashtbl.mem r.alive task.task_id then f task)
    r.tasks

let live_tasks r =
  List.filter (fun (task : Executor.task) -> Hashtbl.mem r.alive task.task_id) r.tasks

(* Live members of a group, in pool order (groups are tiny, the sort is
   noise). *)
let members_live r ids =
  List.filter_map (fun id -> Hashtbl.find_opt r.alive id) ids
  |> List.sort (fun (a : Executor.task) (b : Executor.task) ->
         Int.compare (Hashtbl.find r.rank a.task_id) (Hashtbl.find r.rank b.task_id))

let repool t (task : Executor.task) =
  Executor.reset_for_retry task;
  t.stats.repooled <- t.stats.repooled + 1;
  Obs.incr m_repooled;
  Event.emit ~task:task.task_id Event.Pool_enter;
  Queue.add task t.dormant

let fail_or_repool t (task : Executor.task) =
  (* The engine transaction is already aborted at this point. *)
  match task.status with
  | Failed failure when Executor.failure_is_final failure ->
    finalize t task
      (match failure with
      | Explicit_rollback -> Rolled_back
      | Program_error msg -> Errored msg
      | Deadlock | Si_conflict _ -> assert false)
  | _ ->
    (* An injected timeout models the client giving up on a pooled
       transaction, whatever its declared deadline. *)
    let expired =
      Fault.drops s_timeout
      ||
      match task.deadline with
      | Some deadline -> now t >= deadline
      | None -> false
    in
    if expired then begin
      t.stats.timeouts <- t.stats.timeouts + 1;
      Obs.incr m_timeouts;
      finalize t task Timed_out
    end
    else repool t task

let count_failure t (task : Executor.task) =
  match task.status with
  | Failed Deadlock ->
    t.stats.deadlocks <- t.stats.deadlocks + 1;
    Obs.incr m_deadlocks
  | Failed (Si_conflict _) ->
    t.stats.si_aborts <- t.stats.si_aborts + 1;
    Obs.incr m_si_aborts
  | _ -> ()

(* The coordinator's half of a step or a grounding: simulated-time
   drain, entanglement-wait stamping, deadlock and SI-abort counts. *)
let settle t (task : Executor.task) =
  drain_work t task;
  if task.status = Waiting_entangled && task.entangled_since = None then
    task.entangled_since <- Some (now t);
  count_failure t task

(* Parallel phases take observability off the workers' hot path: while
   the region runs, engine observer dispatch (the certifier/recorder
   behind [obs_mu]) and event-ring emission buffer into per-domain
   shards; the coordinator merges both — in emission-stamp order, an
   exact linearization — when the region ends. Flushing sits in the
   [finally] so an escaping exception cannot leave buffering on. *)
let in_parallel_region t f =
  Ent_txn.Engine.set_deferred_events t.engine true;
  Event.set_buffered true;
  Fun.protect
    ~finally:(fun () ->
      Ent_txn.Engine.set_deferred_events t.engine false;
      Event.set_buffered false;
      Ent_txn.Engine.flush_events t.engine;
      Event.flush_buffered ())
    f

(* Run [body] on every task, settle each task on the coordinator in
   pool order, and return the bodies' results in the same order. With
   no runner, body and settle alternate task by task. With a pool, the
   bodies run on its domains inside one parallel region and the tasks
   settle after it, so the order of simulated-time accounting does not
   depend on which domain ran which body. *)
let for_each_task t tasks body =
  match t.config.runner with
  | None ->
    List.map
      (fun task ->
        let result = body task in
        settle t task;
        result)
      tasks
  | Some pool ->
    let arr = Array.of_list tasks in
    let out = Array.make (Array.length arr) None in
    in_parallel_region t (fun () ->
        Ent_par.Pool.run_indexed pool (Array.length arr) (fun i ->
            out.(i) <- Some (body arr.(i))));
    Array.iter (settle t) arr;
    Array.to_list (Array.map Option.get out)

(* Begin a transaction for a task. Connections are assigned
   round-robin, one transaction per connection at a time; a greedy
   least-loaded pick would dump a whole run onto a connection that
   lagged after the previous run, because only the tiny BEGIN cost is
   visible at assignment time. *)
let begin_task t (task : Executor.task) =
  task.conn <- t.next_conn mod t.config.connections;
  t.next_conn <- t.next_conn + 1;
  Executor.start t.engine t.config.costs task;
  drain_work t task

(* Start: take the whole dormant pool and begin a transaction for every
   task. *)
let start_phase t =
  t.stats.runs <- t.stats.runs + 1;
  Obs.incr m_runs;
  t.arrivals_since_run <- 0;
  Group.reset t.groups;
  let tasks = List.of_seq (Queue.to_seq t.dormant) in
  Queue.clear t.dormant;
  let n = List.length tasks in
  Obs.observe m_run_length (float_of_int n);
  ignore (Event.new_run ());
  Event.emit (Event.Run_start { pool = n });
  let r = run_of tasks in
  r.progress <- true;
  List.iter
    (fun (task : Executor.task) ->
      Event.emit ~task:task.task_id Event.Pool_exit;
      begin_task t task)
    tasks;
  r

(* Step: every runnable task executes statements until it blocks,
   finishes or fails. On a pool, independent transactions step
   concurrently: [Executor.step] only mutates task-private fields plus
   engine and storage state that is shard- or mutex-guarded. A task
   that loses a lock race parks as [Waiting_lock] and is woken by the
   wake phase, exactly like a sequentially blocked task. *)
let step_phase t r =
  let runnable =
    List.filter (fun (task : Executor.task) -> task.status = Runnable) (live_tasks r)
  in
  if runnable <> [] then begin
    ignore
      (for_each_task t runnable (fun task ->
           Fault.hit s_step;
           Executor.step t.engine t.config.isolation t.config.costs task));
    r.progress <- true
  end

(* Wake: lock waiters whose requests were granted become runnable. Txn
   ids drift as -Q tasks autocommit, so the txn→task map is rebuilt per
   batch: O(live + woken), not O(live × woken). *)
let wake_phase t r =
  let woken = Ent_txn.Engine.take_wakeups t.engine in
  if woken <> [] then begin
    let by_txn : (int, Executor.task) Hashtbl.t = Hashtbl.create 32 in
    iter_live r (fun task -> Hashtbl.replace by_txn task.txn task);
    List.iter
      (fun txn ->
        match Hashtbl.find_opt by_txn txn with
        | Some task when task.status = Waiting_lock ->
          task.status <- Runnable;
          Event.emit ~txn:task.txn ~task:task.task_id Event.Lock_grant;
          r.progress <- true
        | _ -> ())
      woken
  end

let commit_group t r (members : Executor.task list) =
  let costs = t.config.costs in
  Obs.observe m_group_size (float_of_int (List.length members));
  if Event.logging () then
    Event.emit
      (Event.Group_commit
         { members = List.map (fun (o : Executor.task) -> o.task_id) members });
  List.iter
    (fun (task : Executor.task) ->
      (* crash between the member commits of one group: the log keeps a
         half-committed Entangle_group that recovery must roll back as
         group victims *)
      Fault.hit s_group_commit;
      let wrote = Ent_txn.Engine.savepoint t.engine task.txn > 0 in
      Ent_txn.Engine.commit t.engine task.txn;
      (* explicit COMMIT is a round trip; the flush is paid only when
         this transaction wrote (always, for -T programs that made it
         here; usually never, for -Q whose statements committed
         themselves) *)
      if task.program.transactional then task.work <- task.work +. costs.c_stmt;
      if wrote then task.work <- task.work +. costs.c_commit;
      drain_work t task;
      t.stats.commits <- t.stats.commits + 1;
      finalize t task Committed;
      Hashtbl.remove r.alive task.task_id)
    members

(* Abort [members] together: group members share lock ownership and may
   have interleaved writes on the same rows, so their merged write log
   is undone in one reverse pass. Then, member by member, charge and
   drain the abort, drop the member from the run and hand it to [k]. *)
let abort_members t r (members : Executor.task list) k =
  Ent_txn.Engine.abort_group t.engine (List.map (fun (o : Executor.task) -> o.txn) members);
  List.iter
    (fun (o : Executor.task) ->
      o.work <- o.work +. t.config.costs.c_abort;
      drain_work t o;
      Hashtbl.remove r.alive o.task_id;
      k o)
    members

(* Commit: a ready task commits as soon as every live member of its
   entanglement group is ready (Figure 4). *)
let commit_phase t r =
  let group_commit = t.config.isolation.group_commit in
  iter_live r (fun (task : Executor.task) ->
      if task.status = Ready then begin
        let to_commit =
          if group_commit then members_live r (Group.members t.groups task.task_id)
          else [ task ]
        in
        if List.for_all (fun (o : Executor.task) -> o.status = Ready) to_commit then begin
          r.progress <- true;
          (* First-committer-wins (snapshot isolation): a member whose
             write set was overwritten by a commit after its snapshot
             dooms the whole group. Abort and repool — the retry runs
             on a fresh snapshot. *)
          match
            List.find_map
              (fun (o : Executor.task) -> Ent_txn.Engine.validate_snapshot t.engine o.txn)
              to_commit
          with
          | Some (table, row) ->
            List.iter
              (fun (o : Executor.task) ->
                o.status <- Executor.Failed (Executor.Si_conflict (table, row)))
              to_commit;
            abort_members t r to_commit (fun o ->
                count_failure t o;
                fail_or_repool t o)
          | None -> (
            (* Integrity check (Assumption 3.1/3.5): refuse to commit a
               (group of) transaction(s) whose writes leave the database
               inconsistent. The whole group fails permanently: retrying
               would re-derive the same state. *)
            match Ent_txn.Engine.violated_constraint t.engine with
            | Some name ->
              abort_members t r to_commit (fun o ->
                  finalize t o (Errored ("constraint violated: " ^ name)))
            | None -> commit_group t r to_commit)
        end
      end)

(* Ground one pending entangled query: engine and cache side effects
   happen here (safe from any domain); accounting is the settle
   step's. *)
let ground t (task : Executor.task) =
  match task.pending with
  | None -> None
  | Some ir -> (
    let lock_reads = t.config.isolation.lock_grounding_reads in
    let access =
      Ent_txn.Engine.access t.engine task.txn ~grounding:true ~lock_reads ()
    in
    (* A cache hit re-acquires the footprint's grounding locks through
       [touch]; blocking/deadlock there is handled exactly like a
       blocked recomputation. *)
    let touch tables =
      Ent_txn.Engine.touch_grounding_tables t.engine task.txn ~lock_reads tables
    in
    (* Snapshot tasks ground against their begin-stamp snapshot, which
       the cache — keyed to live table versions — cannot serve: bypass
       it entirely (no lookup, no insert). *)
    let bypass = task.program.isolation = Ent_txn.Engine.Snapshot in
    match
      Gcache.compute ~bypass ?memo:task.grounded t.gcache ~access ~touch
        ~env:task.env ir
    with
    | groundings, cached, memo ->
      task.grounded <- memo;
      task.work <-
        task.work
        +. (float_of_int (List.length groundings)
           *. if cached then t.config.costs.c_ground_hit else t.config.costs.c_ground);
      Some (task, ir, groundings)
    | exception Ent_txn.Engine.Blocked _ ->
      (* retry grounding after a wake-up; the statement pointer still
         sits at the entangled query *)
      task.pending <- None;
      task.status <- Waiting_lock;
      None
    | exception Ent_txn.Engine.Deadlock_victim _ ->
      Ent_txn.Engine.abort t.engine task.txn;
      task.status <- Failed Deadlock;
      None
    | exception Ground.Ground_error msg ->
      Ent_txn.Engine.abort t.engine task.txn;
      task.status <- Failed (Program_error msg);
      None)

(* Coordinate: ground every pending entangled query, evaluate them all
   together, perform one entanglement operation per answered component
   and deliver the results. Groundings only read (table-S locks) and no
   transaction steps during this phase, so on a pool they run
   concurrently; they settle in pool order, which keeps coordination
   input deterministic up to lock outcomes. *)
let coordinate_phase t r =
  (* Wall-clock (not simulated) time spent in the whole phase, accrued
     into [stats.coord_wall_s]: bench divides it by the cell's wall time
     to report the coordination share of each scale-up point. Reading
     the monotonic clock never feeds back into scheduling, so
     deterministic output is unaffected. *)
  let coord_t0 = Ent_obs.Clock.monotonic () in
  let pending =
    List.filter
      (fun (task : Executor.task) -> task.status = Waiting_entangled)
      (live_tasks r)
  in
  let entries = List.filter_map Fun.id (for_each_task t pending (ground t)) in
  if entries <> [] then begin
    let costs = t.config.costs in
    t.stats.coordination_rounds <- t.stats.coordination_rounds + 1;
    Obs.incr m_coord_rounds;
    Obs.observe m_coord_batch (float_of_int (List.length entries));
    Ent_sim.Pool.barrier t.pool (float_of_int (List.length entries) *. costs.c_coord);
    let results =
      Coordinate.evaluate
        (List.map
           (fun ((task : Executor.task), ir, gs) -> (task.task_id, ir, gs))
           entries)
    in
    let result_index = Hashtbl.create (List.length results) in
    List.iter
      (fun (task_id, outcome) ->
        if not (Hashtbl.mem result_index task_id) then
          Hashtbl.add result_index task_id outcome)
      results;
    let outcome_of task_id = Hashtbl.find result_index task_id in
    Group.entangle t.groups t.engine
      ~next_event:(fun () ->
        let event = t.next_event in
        t.next_event <- event + 1;
        t.stats.entangle_events <- t.stats.entangle_events + 1;
        event)
      ~txn_of:(fun id ->
        Option.map (fun (task : Executor.task) -> task.txn) (Hashtbl.find_opt r.alive id))
      ?on_entangle:t.on_entangle
      (List.filter_map
         (fun ((task : Executor.task), _, _) ->
           match outcome_of task.task_id with
           | Coordinate.Answered g -> Some (task.task_id, task.txn, g)
           | Coordinate.Empty | Coordinate.No_partner -> None)
         entries);
    List.iter
      (fun ((task : Executor.task), _, _) ->
        match outcome_of task.task_id with
        | Coordinate.Answered _ | Coordinate.Empty ->
          (match task.entangled_since with
          | Some since ->
            Obs.observe m_blocked (now t -. since);
            task.entangled_since <- None
          | None -> ());
          Event.emit ~txn:task.txn ~task:task.task_id
            (Event.Answer { empty = outcome_of task.task_id = Coordinate.Empty });
          Executor.deliver t.engine costs task (outcome_of task.task_id);
          drain_work t task;
          r.progress <- true
        | Coordinate.No_partner -> ())
      entries
  end;
  t.stats.coord_wall_s <-
    t.stats.coord_wall_s +. (Ent_obs.Clock.monotonic () -. coord_t0)

(* Run end: whoever is left cannot proceed in this run. Blocked and
   ready-but-widowed tasks are aborted and repooled (the group abort
   cascade falls out: a ready task whose partner failed was never
   committed, so it lands here and aborts); final failures are
   recorded; expired timeouts fail permanently. *)
let end_phase t r =
  let leftovers = live_tasks r in
  (* A Ready leftover finished its statements but its group never
     committed (a partner failed or never arrived): aborting and
     repooling it here is exactly the widow prevention of §3.4. *)
  List.iter
    (fun (task : Executor.task) ->
      if task.status = Ready then begin
        Obs.incr m_widow_preventions;
        Event.emit ~txn:task.txn ~task:task.task_id Event.Widow_prevention
      end)
    leftovers;
  List.iter
    (fun members ->
      abort_members t r
        (List.filter
           (fun (o : Executor.task) -> Ent_txn.Engine.is_active t.engine o.txn)
           members)
        ignore)
    (Group.by_group t.groups (fun (o : Executor.task) -> o.task_id) leftovers);
  List.iter (fail_or_repool t) leftovers;
  (* Every transaction of this run is finished now, so the oldest live
     snapshot horizon is the current commit stamp: GC empties the
     version chains entirely. No-op in pure-2PL mode. *)
  Ent_txn.Engine.gc_versions t.engine;
  (* A dropped snapshot models the middleware failing to persist its
     pool state: recovery then falls back to the previous snapshot. *)
  if t.config.snapshot_pool && not (Fault.drops s_pool_snapshot) then
    Ent_txn.Engine.log_pool_snapshot t.engine
      (List.of_seq
         (Seq.map
            (fun (task : Executor.task) -> Program.to_string task.program)
            (Queue.to_seq t.dormant)));
  Obs.set m_dormant (float_of_int (Queue.length t.dormant));
  Event.emit (Event.Run_end { dormant = Queue.length t.dormant });
  t.last_run_end <- now t;
  sample t

let run_once t =
  if not (Queue.is_empty t.dormant) then begin
    let r = start_phase t in
    while r.progress do
      r.progress <- false;
      step_phase t r;
      wake_phase t r;
      commit_phase t r;
      if not r.progress then coordinate_phase t r;
      (* Coordinator-side telemetry sample, once per round: the parallel
         phases are barriers, so no worker domain is running here and
         the series is touched from exactly one domain. *)
      sample t
    done;
    end_phase t r
  end

(* A task under the next id, indexed for outcome and answer queries. *)
let new_task t (program : Program.t) =
  let task_id = t.next_task in
  t.next_task <- task_id + 1;
  (* First snapshot-isolation program: turn on this engine's version
     chains from here on. Never turned back off — earlier 2PL writers
     left no chain entries, which reads exactly like "visible to all".
     Flipped at submit rather than at the first Snapshot begin: runs
     start with no transaction active, so no uncommitted 2PL write can
     precede the switch without a chain entry. *)
  if program.isolation = Ent_txn.Engine.Snapshot then
    Ent_storage.Catalog.enable_versioning (Ent_txn.Engine.catalog t.engine);
  let task = Executor.make_task ~task_id ~arrival:(now t) program in
  Hashtbl.replace t.task_index task_id task;
  task

let open_task t program =
  let task = new_task t program in
  begin_task t task;
  task

let abort_group t (task : Executor.task) outcome =
  let ids =
    if t.config.isolation.group_commit then Group.members t.groups task.task_id
    else [ task.task_id ]
  in
  let victims =
    List.filter_map
      (fun id ->
        if Hashtbl.mem t.outcomes id then None else Hashtbl.find_opt t.task_index id)
      ids
  in
  let active =
    List.filter
      (fun (o : Executor.task) -> Ent_txn.Engine.is_active t.engine o.txn)
      victims
  in
  abort_members t (run_of active) active ignore;
  List.iter (fun o -> finalize t o outcome) victims

let submit t (program : Program.t) =
  Obs.incr m_submitted;
  let task = new_task t program in
  let task_id = task.task_id in
  Event.emit ~task:task_id Event.Pool_enter;
  Queue.add task t.dormant;
  Obs.set m_dormant (float_of_int (Queue.length t.dormant));
  t.arrivals_since_run <- t.arrivals_since_run + 1;
  (match t.config.trigger with
  | Every_arrivals f when t.arrivals_since_run >= f -> run_once t
  | Every_seconds interval when now t -. t.last_run_end >= interval -> run_once t
  | Every_arrivals _ | Every_seconds _ | Manual -> ());
  task_id

let id_set ids =
  let set = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace set id ()) ids;
  set

(* Snapshot of who is blocked on whom. Unfinished tasks are either
   dormant (in the pool, possibly awaiting an entanglement partner) or
   stranded mid-run — the latter only observable from outside after a
   crash, which is exactly when entsim wants the picture: lock tables
   survive the scheduler's run loop, so post-crash holders still show.
   Lock edges come from the engine's waits-for relation; entanglement
   edges from the (last run's) group membership. *)
let wait_graph t =
  let locks = Ent_txn.Engine.locks t.engine in
  let pending =
    Hashtbl.fold
      (fun id task acc ->
        if Hashtbl.mem t.outcomes id then acc else (id, task) :: acc)
      t.task_index []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let dormant_ids = id_set (dormant t) in
  let task_of_txn txn =
    if txn < 0 then None
    else
      List.find_map
        (fun (id, (task : Executor.task)) ->
          if task.txn = txn then Some id else None)
        pending
  in
  let nodes =
    List.map
      (fun (id, (task : Executor.task)) ->
        let in_pool = Hashtbl.mem dormant_ids id in
        let state =
          if in_pool then "in-pool"
          else Format.asprintf "%a" Executor.pp_status task.status
        in
        let detail =
          if in_pool && Program.entangled_count task.program > 0 then
            "entangled, awaiting a partner"
          else if task.txn >= 0 then
            String.concat ", "
              (List.map
                 (fun (resource, mode) ->
                   Printf.sprintf "wants %s on %s"
                     (Ent_txn.Lock.mode_to_string mode)
                     (Ent_txn.Lock.resource_to_string resource))
                 (Ent_txn.Lock.waits locks ~txn:task.txn))
          else ""
        in
        {
          Waitgraph.n_task = id;
          n_txn = task.txn;
          n_label = task.program.label;
          n_state = state;
          n_detail = detail;
        })
      pending
  in
  let lock_edges =
    List.concat_map
      (fun (id, (task : Executor.task)) ->
        if task.txn < 0 then []
        else
          let blocking = Ent_txn.Lock.blockers locks ~txn:task.txn in
          List.concat_map
            (fun (resource, _) ->
              List.filter_map
                (fun (holder, mode) ->
                  if List.mem holder blocking then
                    Option.map
                      (fun dst ->
                        {
                          Waitgraph.e_src = id;
                          e_dst = dst;
                          e_why =
                            Printf.sprintf "lock %s (holds %s)"
                              (Ent_txn.Lock.resource_to_string resource)
                              (Ent_txn.Lock.mode_to_string mode);
                        })
                      (task_of_txn holder)
                  else None)
                (Ent_txn.Lock.holders locks resource))
            (Ent_txn.Lock.waits locks ~txn:task.txn))
      pending
  in
  let entangle_edges =
    List.concat_map
      (fun (id, _) ->
        List.filter_map
          (fun peer ->
            if peer > id && List.mem_assoc peer pending then
              Some { Waitgraph.e_src = id; e_dst = peer; e_why = "entangled" }
            else None)
          (Group.members t.groups id))
      pending
  in
  { Waitgraph.g_now = now t; nodes; edges = lock_edges @ entangle_edges }

let drain ?(max_runs = 10_000) t =
  let rec go remaining =
    if remaining > 0 && not (Queue.is_empty t.dormant) then begin
      let before_commits = t.stats.commits in
      let before_pool = Queue.length t.dormant in
      run_once t;
      let progressed =
        t.stats.commits > before_commits
        || Queue.length t.dormant < before_pool
      in
      if progressed then go (remaining - 1)
    end
  in
  go max_runs

open Ent_storage
open Ent_entangle
module Event = Ent_obs.Event

type failure =
  | Deadlock
  | Si_conflict of string * int
  | Explicit_rollback
  | Program_error of string

type status =
  | Runnable
  | Waiting_entangled
  | Waiting_lock
  | Ready
  | Failed of failure

type task = {
  task_id : int;
  program : Program.t;
  arrival : float;
  deadline : float option;
  mutable txn : int;
  mutable pc : int;
  mutable env : Ent_sql.Eval.env;
  mutable status : status;
  mutable pending : Ir.t option;
  mutable attempts : int;
  mutable work : float;
  mutable conn : int;
  mutable answers : Ir.ground_atom list;
  mutable entangled_since : float option;
}

let make_task ~task_id ~arrival (program : Program.t) =
  {
    task_id;
    program;
    arrival;
    deadline = Option.map (fun s -> arrival +. s) program.ast.timeout;
    txn = -1;
    pc = 0;
    env = Ent_sql.Eval.fresh_env ();
    status = Runnable;
    pending = None;
    attempts = 0;
    work = 0.0;
    conn = -1;
    answers = [];
    entangled_since = None;
  }

let start engine (costs : Ent_sim.Cost.t) task =
  task.txn <-
    Ent_txn.Engine.begin_txn ~isolation:task.program.isolation engine;
  (* The engine allocates the txn id, so the txn→task registration (and
     hence the Begin event, which needs both ids) must happen here, the
     first place both are known. *)
  if Event.logging () then begin
    Event.register_txn ~txn:task.txn ~task:task.task_id;
    Event.emit ~txn:task.txn ~task:task.task_id Event.Begin
  end;
  task.status <- Runnable;
  task.attempts <- task.attempts + 1;
  task.work <- task.work +. costs.c_begin;
  (* explicit BEGIN TRANSACTION is one more client round trip *)
  if task.program.transactional then task.work <- task.work +. costs.c_stmt

(* Wrap an access so row traffic is charged to the task. Reads are
   lazy sequences, so the charge lands per row actually consumed: a
   LIMIT that stops pulling stops paying. *)
let counting_access (costs : Ent_sim.Cost.t) task (access : Ent_sql.Eval.access) :
    Ent_sql.Eval.access =
  let charge_rows rows =
    Seq.map
      (fun pair ->
        task.work <- task.work +. costs.c_row;
        pair)
      rows
  in
  {
    access with
    scan = (fun name -> charge_rows (access.scan name));
    lookup = (fun name ~positions key -> charge_rows (access.lookup name ~positions key));
    range =
      (fun name ~position ~lo ~hi ->
        charge_rows (access.range name ~position ~lo ~hi));
    insert =
      (fun name row ->
        task.work <- task.work +. costs.c_write;
        access.insert name row);
    update =
      (fun name id row ->
        task.work <- task.work +. costs.c_write;
        access.update name id row);
    delete =
      (fun name id ->
        task.work <- task.work +. costs.c_write;
        access.delete name id);
  }

(* -Q workloads: every statement is its own transaction. The commit
   costs a log flush only when the statement actually wrote (MySQL
   autocommit does not force the log for reads). *)
let autocommit_boundary engine (costs : Ent_sim.Cost.t) task =
  if not task.program.transactional then begin
    let wrote = Ent_txn.Engine.savepoint engine task.txn > 0 in
    Ent_txn.Engine.commit engine task.txn;
    if wrote then task.work <- task.work +. costs.c_commit;
    task.txn <-
      Ent_txn.Engine.begin_txn ~isolation:task.program.isolation engine;
    if Event.logging () then begin
      Event.register_txn ~txn:task.txn ~task:task.task_id;
      Event.emit ~txn:task.txn ~task:task.task_id Event.Begin
    end
  end

(* Abort the task's transaction: the statement ended it. *)
let fail engine (costs : Ent_sim.Cost.t) task failure =
  Ent_txn.Engine.abort engine task.txn;
  task.work <- task.work +. costs.c_abort;
  task.status <- Failed failure;
  None

(* One statement. A classical statement that completes returns its
   result; every other outcome lands in [task.status]. *)
let exec engine (isolation : Isolation.t) (costs : Ent_sim.Cost.t) task stmt =
  match stmt with
  | Ent_sql.Ast.Entangled e -> (
    try
      task.pending <- Some (Translate.of_ast ~env:task.env e);
      task.work <- task.work +. costs.c_stmt;
      task.status <- Waiting_entangled;
      Event.emit ~txn:task.txn ~task:task.task_id Event.Entangle_block;
      None
    with Translate.Translate_error msg | Ir.Unsafe msg ->
      fail engine costs task (Program_error msg))
  | Ent_sql.Ast.Rollback -> fail engine costs task Explicit_rollback
  | stmt -> (
    let sp = Ent_txn.Engine.savepoint engine task.txn in
    let access =
      counting_access costs task
        (Ent_txn.Engine.access engine task.txn ~grounding:false
           ~lock_reads:isolation.lock_classical_reads ())
    in
    task.work <- task.work +. costs.c_stmt;
    match Ent_sql.Eval.exec_stmt access task.env stmt with
    | result ->
      task.pc <- task.pc + 1;
      autocommit_boundary engine costs task;
      Some result
    | exception Ent_txn.Engine.Blocked _ ->
      Ent_txn.Engine.rollback_to engine task.txn sp;
      task.status <- Waiting_lock;
      None
    | exception Ent_txn.Engine.Deadlock_victim _ -> fail engine costs task Deadlock
    | exception Ent_txn.Engine.Si_conflict _ ->
      (* snapshot write lost first-committer-wins mid-statement;
         abort and retry on a fresh snapshot (row id unknown here) *)
      fail engine costs task (Si_conflict ("", -1))
    | exception Ent_sql.Eval.Eval_error msg ->
      fail engine costs task (Program_error msg))

let rec step engine isolation costs task =
  let body = task.program.stmts in
  if task.pc >= Array.length body then begin
    task.status <- Ready;
    Event.emit ~txn:task.txn ~task:task.task_id Event.Ready
  end
  else
    match exec engine isolation costs task body.(task.pc) with
    | Some _ -> step engine isolation costs task
    | None -> ()

(* Bind the query's [AS @var] positions in [env]. The first head atom
   of the chosen grounding is the query's own contribution; its values
   feed the bindings (Figure 2's @ArrivalDay). No answer, or an empty
   one, binds [Null]. *)
let bind_answer env (query : Ir.t) (answer : Ground.grounding option) =
  let own =
    match answer with
    | Some { g_head = (_, values) :: _; _ } -> Some values
    | _ -> None
  in
  List.iter
    (fun (var, pos) ->
      let value =
        match own with
        | Some vs when pos < List.length vs -> List.nth vs pos
        | _ -> Value.Null
      in
      Hashtbl.replace env var value)
    query.binds

let deliver engine (costs : Ent_sim.Cost.t) task outcome =
  match task.pending, outcome with
  | None, _ -> invalid_arg "Executor.deliver: task has no pending query"
  | Some query, Coordinate.Answered g ->
    bind_answer task.env query (Some g);
    task.answers <- g.g_head @ task.answers;
    task.pending <- None;
    task.pc <- task.pc + 1;
    task.work <- task.work +. costs.c_entangle_answer;
    autocommit_boundary engine costs task;
    task.status <- Runnable
  | Some query, Coordinate.Empty ->
    (* Appendix B: evaluation included the query but produced no
       answer; this is success with an empty result, the transaction
       proceeds. *)
    bind_answer task.env query None;
    task.pending <- None;
    task.pc <- task.pc + 1;
    autocommit_boundary engine costs task;
    task.status <- Runnable
  | Some _, Coordinate.No_partner -> ()

let reset_for_retry task =
  task.txn <- -1;
  task.status <- Runnable;
  task.pending <- None;
  task.entangled_since <- None;
  (* -T programs were rolled back entirely and restart from the top.
     -Q programs committed statement by statement: that progress is
     durable, so a retry resumes at the statement that blocked. *)
  if task.program.transactional then begin
    task.pc <- 0;
    task.env <- Ent_sql.Eval.fresh_env ();
    task.answers <- []
  end

let failure_is_final = function
  | Deadlock | Si_conflict _ -> false
  | Explicit_rollback | Program_error _ -> true

let pp_status ppf status =
  let s =
    match status with
    | Runnable -> "runnable"
    | Waiting_entangled -> "waiting-entangled"
    | Waiting_lock -> "waiting-lock"
    | Ready -> "ready"
    | Failed Deadlock -> "failed(deadlock)"
    | Failed (Si_conflict (table, row)) ->
      if table = "" then "failed(si-conflict)"
      else Printf.sprintf "failed(si-conflict %s/%d)" table row
    | Failed Explicit_rollback -> "failed(rollback)"
    | Failed (Program_error msg) -> "failed(" ^ msg ^ ")"
  in
  Format.pp_print_string ppf s

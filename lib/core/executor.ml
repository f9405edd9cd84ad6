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

type translation = {
  t_stmt : Ent_sql.Ast.entangled_select;
  t_reads : (string * Value.t) list;
  t_query : Ir.t;
}

type task = {
  task_id : int;
  program : Program.t;
  arrival : float;
  mutable txn : int;
  mutable handle : Ent_txn.Engine.txn option;
  mutable pc : int;
  mutable env : Ent_sql.Eval.env;
  mutable status : status;
  mutable pending : Ir.t option;
  mutable attempts : int;
  mutable work : float;
  mutable conn : int;
  mutable answers : Ir.ground_atom list;
  mutable entangled_since : float option;
  mutable translated : translation option;
  mutable grounded : Gcache.memo option;
}

let make_task ~task_id ~arrival (program : Program.t) =
  {
    task_id;
    program;
    arrival;
    txn = -1;
    handle = None;
    pc = 0;
    env = Ent_sql.Eval.fresh_env ();
    status = Runnable;
    pending = None;
    attempts = 0;
    work = 0.0;
    conn = -1;
    answers = [];
    entangled_since = None;
    translated = None;
    grounded = None;
  }

let deadline task =
  Option.map (fun s -> task.arrival +. s) task.program.ast.timeout

let handle task =
  match task.handle with
  | Some txn -> txn
  | None -> invalid_arg (Printf.sprintf "Executor: task %d has no transaction" task.task_id)

let txn_live task =
  match task.handle with
  | Some txn -> Ent_txn.Engine.is_live txn
  | None -> false

let begin_txn engine task =
  let txn = Ent_txn.Engine.begin_txn ~isolation:task.program.isolation engine in
  task.txn <- Ent_txn.Engine.id txn;
  task.handle <- Some txn;
  (* The engine allocates the txn id, so the txn→task registration (and
     hence the Begin event, which needs both ids) must happen here, the
     first place both are known. *)
  if Event.logging () then begin
    Event.register_txn ~txn:task.txn ~task:task.task_id;
    Event.emit ~txn:task.txn ~task:task.task_id Event.Begin
  end

let start engine (costs : Ent_sim.Cost.t) task =
  begin_txn engine task;
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
    let txn = handle task in
    let wrote = Ent_txn.Engine.savepoint txn > 0 in
    Ent_txn.Engine.commit engine txn;
    if wrote then task.work <- task.work +. costs.c_commit;
    begin_txn engine task
  end

(* The classical access of the task's transaction, with the
   cost-counting wrapper, for the statements of one [step] or [exec]:
   built at the first classical statement, and again only when an
   autocommit began another transaction. It is not kept on the task
   while the task waits: a record that lives across a minor collection
   is promoted, and waiting is what pending and entangled tasks do
   most. *)
let access_builder engine (isolation : Isolation.t) costs task =
  let built = ref None in
  fun () ->
    let txn = handle task in
    match !built with
    | Some (owner, access) when owner == txn -> access
    | _ ->
      let access =
        counting_access costs task
          (Ent_txn.Engine.access engine txn ~grounding:false
             ~lock_reads:isolation.lock_classical_reads ())
      in
      built := Some (txn, access);
      access

(* Abort the task's transaction: the statement ended it. *)
let fail engine (costs : Ent_sim.Cost.t) task failure =
  Ent_txn.Engine.abort engine (handle task);
  task.work <- task.work +. costs.c_abort;
  task.status <- Failed failure;
  None

(* The task's last translation of [e] when the host values it read are
   still bound in [task.env]; otherwise a fresh one, kept for the next
   execution of [e]. *)
let translate task e =
  match task.translated with
  | Some tr
    when tr.t_stmt == e
         && List.for_all
              (fun (name, v) ->
                match Hashtbl.find_opt task.env name with
                | Some now -> Value.equal now v
                | None -> false)
              tr.t_reads ->
    tr.t_query
  | _ ->
    let query, reads = Translate.of_ast_reads ~env:task.env e in
    task.translated <- Some { t_stmt = e; t_reads = reads; t_query = query };
    query

(* Run a classical statement: statement [i] of the program through its
   plan key, a statement from outside the program ([i] = -1) through
   [exec_stmt], which keys it on this run. *)
let eval access task i stmt =
  if i < 0 then Ent_sql.Eval.exec_stmt access task.env stmt
  else
    let p = task.program in
    Ent_sql.Eval.exec_template access task.env p.templates.(i) p.params stmt

(* Statement [i] of the program, or a statement from outside it when
   [i] is -1. A classical statement that completes returns its result;
   every other outcome lands in [task.status]. *)
let exec_at engine (costs : Ent_sim.Cost.t) ~access task i stmt =
  match stmt with
  | Ent_sql.Ast.Entangled e -> (
    try
      task.pending <- Some (translate task e);
      task.work <- task.work +. costs.c_stmt;
      task.status <- Waiting_entangled;
      Event.emit ~txn:task.txn ~task:task.task_id Event.Entangle_block;
      None
    with Translate.Translate_error msg | Ir.Unsafe msg ->
      fail engine costs task (Program_error msg))
  | Ent_sql.Ast.Rollback -> fail engine costs task Explicit_rollback
  | stmt -> (
    let txn = handle task in
    let sp = Ent_txn.Engine.savepoint txn in
    let access = access () in
    task.work <- task.work +. costs.c_stmt;
    match eval access task i stmt with
    | result ->
      task.pc <- task.pc + 1;
      autocommit_boundary engine costs task;
      Some result
    | exception Ent_txn.Engine.Blocked _ ->
      Ent_txn.Engine.rollback_to engine txn sp;
      task.status <- Waiting_lock;
      None
    | exception Ent_txn.Engine.Deadlock_victim _ -> fail engine costs task Deadlock
    | exception Ent_txn.Engine.Si_conflict _ ->
      (* snapshot write lost first-committer-wins mid-statement;
         abort and retry on a fresh snapshot (row id unknown here) *)
      fail engine costs task (Si_conflict ("", -1))
    | exception Ent_sql.Eval.Eval_error msg ->
      fail engine costs task (Program_error msg))

let exec engine isolation costs task stmt =
  exec_at engine costs ~access:(access_builder engine isolation costs task) task (-1) stmt

let step engine isolation costs task =
  let body = task.program.stmts in
  let access = access_builder engine isolation costs task in
  let rec go () =
    if task.pc >= Array.length body then begin
      task.status <- Ready;
      Event.emit ~txn:task.txn ~task:task.task_id Event.Ready
    end
    else
      match exec_at engine costs ~access task task.pc body.(task.pc) with
      | Some _ -> go ()
      | None -> ()
  in
  go ()

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
  task.handle <- None;
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

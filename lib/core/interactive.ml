open Ent_entangle

type hub = {
  sched : Scheduler.t;
  mutable sessions : session list;  (* newest first: the coordination order *)
}

and session = {
  hub : hub;
  task : Executor.task;
  mutable stmt : Ent_sql.Ast.stmt option;
      (* the statement last executed: what a lock wait retries *)
}

type reply =
  | Rows of Ent_storage.Value.t array list
  | Affected of int
  | Answered of Ir.ground_atom list
  | Parked
  | Committed
  | Commit_pending
  | Blocked
  | Aborted of string

let create_hub ?(isolation = Isolation.full) engine =
  let config = { Scheduler.default_config with isolation; trigger = Manual } in
  { sched = Scheduler.create ~config engine; sessions = [] }

let scheduler hub = hub.sched
let observe hub = Scheduler.observe hub.sched

(* A session's program has no statements of its own: the user feeds
   them one at a time, and stepping it only marks it ready to commit. *)
let session_program =
  Program.make ~label:"session" { Ent_sql.Ast.timeout = None; body = [] }

let start hub =
  let session =
    { hub; task = Scheduler.open_task hub.sched session_program; stmt = None }
  in
  hub.sessions <- session :: hub.sessions;
  session

let answers session = session.task.answers
let env session = session.task.env
let finished session = Scheduler.outcome session.hub.sched session.task.task_id <> None

let at_entangled session =
  match session.stmt with
  | Some (Ent_sql.Ast.Entangled _) -> true
  | _ -> false

let outcome_of_failure session : Executor.failure -> Scheduler.outcome = function
  | Explicit_rollback -> Rolled_back
  | Program_error msg -> Errored msg
  | Deadlock ->
    Errored (if at_entangled session then "deadlock during grounding" else "deadlock")
  | Si_conflict _ -> Errored "snapshot conflict"

let reply_of_outcome : Scheduler.outcome -> reply = function
  | Committed -> Committed
  | Rolled_back -> Aborted "rolled back"
  | Timed_out -> Aborted "timed out"
  | Errored reason -> Aborted reason

(* A grounding that waits on a lock keeps the session parked at its
   entangled query; a classical statement that waits is blocked until
   the session's own poll retries it. *)
let reply_of session =
  match Scheduler.outcome session.hub.sched session.task.task_id with
  | Some outcome -> reply_of_outcome outcome
  | None -> (
    match session.task.status with
    | Runnable -> Answered session.task.answers
    | Waiting_entangled -> Parked
    | Waiting_lock -> if at_entangled session then Parked else Blocked
    | Ready -> Commit_pending
    | Failed failure -> reply_of_outcome (outcome_of_failure session failure))

let parked_count hub =
  List.length
    (List.filter
       (fun s ->
         match reply_of s with
         | Parked -> true
         | _ -> false)
       hub.sessions)

(* A failed statement ends the session's transaction; its entanglement
   partners are aborted with it (widowed-transaction prevention). *)
let settle session =
  match session.task.status with
  | Failed failure when not (finished session) ->
    Scheduler.abort_group session.hub.sched session.task
      (outcome_of_failure session failure)
  | _ -> ()

let exec session stmt =
  let config = Scheduler.config session.hub.sched in
  Executor.exec (Scheduler.engine session.hub.sched) config.isolation config.costs
    session.task stmt

(* One round of the scheduler's phases over the live sessions: ready
   groups commit, groundings that waited on a lock re-run their
   entangled statement (so locks released by those commits serve them
   in the same round), and every parked query is grounded and
   coordinated together. *)
let advance hub =
  ignore (Ent_txn.Engine.take_wakeups (Scheduler.engine hub.sched));
  let live = List.filter (fun s -> not (finished s)) hub.sessions in
  let run = Scheduler.run_of (List.map (fun s -> s.task) live) in
  Scheduler.commit_phase hub.sched run;
  List.iter
    (fun s ->
      match s.stmt with
      | Some stmt when s.task.status = Waiting_lock && at_entangled s -> ignore (exec s stmt)
      | _ -> ())
    live;
  Scheduler.coordinate_phase hub.sched run;
  List.iter settle live

let run session stmt =
  (match stmt with
  | Ent_sql.Ast.Entangled _ -> session.task.answers <- []
  | _ -> ());
  match exec session stmt with
  | Some (Ent_sql.Eval.Rows rows) -> Rows rows
  | Some (Ent_sql.Eval.Affected n) -> Affected n
  | Some Ent_sql.Eval.Created -> Affected 0
  | None ->
    settle session;
    if session.task.status = Waiting_entangled then advance session.hub;
    reply_of session

let execute session input =
  if finished session then invalid_arg "Interactive.execute: session already finished";
  (match session.task.status with
  | Ready -> invalid_arg "Interactive.execute: commit pending"
  | Waiting_entangled ->
    invalid_arg "Interactive.execute: waiting at an entangled query (poll instead)"
  | Waiting_lock when at_entangled session ->
    invalid_arg "Interactive.execute: waiting at an entangled query (poll instead)"
  | Runnable | Waiting_lock | Failed _ -> ());
  match Ent_sql.Parser.parse_stmt input with
  | exception (Ent_sql.Parser.Parse_error msg | Ent_sql.Lexer.Lex_error msg) ->
    Scheduler.abort_group session.hub.sched session.task
      (Errored ("parse error: " ^ msg));
    reply_of session
  | stmt ->
    (* a blocked statement the user moved on from is abandoned *)
    session.stmt <- Some stmt;
    session.task.status <- Runnable;
    run session stmt

let poll session =
  if finished session then reply_of session
  else
    match session.task.status, session.stmt with
    | Waiting_lock, Some stmt when not (at_entangled session) ->
      session.task.status <- Runnable;
      run session stmt
    | (Waiting_entangled | Waiting_lock | Ready), _ ->
      advance session.hub;
      reply_of session
    | (Runnable | Failed _), _ -> reply_of session

let commit session =
  if not (finished session) then begin
    match session.task.status with
    | Runnable ->
      let config = Scheduler.config session.hub.sched in
      Executor.step (Scheduler.engine session.hub.sched) config.isolation config.costs
        session.task;
      advance session.hub
    | Ready -> advance session.hub
    | Waiting_entangled | Waiting_lock ->
      invalid_arg "Interactive.commit: statement still in progress"
    | Failed _ -> ()
  end;
  reply_of session

let cancel session =
  Scheduler.abort_group session.hub.sched session.task (Errored "cancelled")

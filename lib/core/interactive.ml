open Ent_entangle

type state =
  | Active
  | Parked of Ir.t  (** waiting at an entangled query *)
  | Blocked_stmt of Ent_sql.Ast.stmt  (** lock conflict, retry later *)
  | Want_commit
  | Done
  | Failed of string

type session = {
  hub : hub;
  id : int;
  txn : int;
  env : Ent_sql.Eval.env;
  mutable state : state;
  mutable received : Ir.ground_atom list;
}

and hub = {
  engine : Ent_txn.Engine.t;
  isolation : Isolation.t;
  groups : Group.t;
  mutable sessions : session list;
  mutable next_id : int;
  mutable next_event : int;
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
  {
    engine;
    isolation;
    groups = Group.create ();
    sessions = [];
    next_id = 1;
    next_event = 1_000_000;  (* distinct from the batch scheduler's ids *)
  }

let start hub =
  let session =
    {
      hub;
      id = hub.next_id;
      txn = Ent_txn.Engine.begin_txn hub.engine;
      env = Ent_sql.Eval.fresh_env ();
      state = Active;
      received = [];
    }
  in
  hub.next_id <- hub.next_id + 1;
  hub.sessions <- session :: hub.sessions;
  session

let answers session = session.received
let env session = session.env

let parked_count hub =
  List.length
    (List.filter
       (fun s ->
         match s.state with
         | Parked _ -> true
         | _ -> false)
       hub.sessions)

let group_members hub session =
  let ids = Group.members hub.groups session.id in
  List.filter (fun s -> List.mem s.id ids) hub.sessions

(* Abort a session and (under group commit) its whole entanglement
   group: interactive users learn about it at their next poll. *)
let rec abort_group hub session reason =
  let victims =
    if hub.isolation.group_commit then group_members hub session else [ session ]
  in
  Ent_txn.Engine.abort_group hub.engine (List.map (fun s -> s.txn) victims);
  List.iter
    (fun s ->
      match s.state with
      | Done | Failed _ -> ()
      | Active | Parked _ | Blocked_stmt _ | Want_commit -> s.state <- Failed reason)
    victims

(* Evaluate all parked queries together; deliver answers. *)
and evaluate_parked hub =
  let parked =
    List.filter_map
      (fun s ->
        match s.state with
        | Parked query -> Some (s, query)
        | _ -> None)
      hub.sessions
  in
  if parked <> [] then begin
    let entries =
      List.filter_map
        (fun (s, query) ->
          let access =
            Ent_txn.Engine.access hub.engine s.txn ~grounding:true
              ~lock_reads:hub.isolation.lock_grounding_reads ()
          in
          match Ground.compute ~access ~env:s.env query with
          | groundings -> Some (s.id, query, groundings)
          | exception Ent_txn.Engine.Blocked _ -> None
          | exception Ent_txn.Engine.Deadlock_victim _ ->
            abort_group hub s "deadlock during grounding";
            None
          | exception Ground.Ground_error msg ->
            abort_group hub s msg;
            None)
        parked
    in
    let results = Coordinate.evaluate entries in
    let answered =
      List.filter_map
        (fun (s, query) ->
          match List.assoc_opt s.id results with
          | Some (Coordinate.Answered g) -> Some (s, query, g)
          | Some Coordinate.Empty ->
            (* success with empty answer: deliver nothing, resume *)
            Executor.bind_answer s.env query None;
            s.state <- Active;
            None
          | Some Coordinate.No_partner | None -> None)
        parked
    in
    Group.entangle hub.groups hub.engine
      ~next_event:(fun () ->
        let event = hub.next_event in
        hub.next_event <- event + 1;
        event)
      ~txn_of:(fun id ->
        List.find_map (fun s -> if s.id = id then Some s.txn else None) hub.sessions)
      (List.map (fun (s, _, g) -> (s.id, s.txn, g)) answered);
    List.iter
      (fun (s, query, (g : Ground.grounding)) ->
        Executor.bind_answer s.env query (Some g);
        s.received <- g.g_head @ s.received;
        s.state <- Active)
      answered
  end

(* Try to commit every group whose members all want to commit. *)
let try_commits hub =
  List.iter
    (fun s ->
      if s.state = Want_commit then begin
        let members =
          if hub.isolation.group_commit then group_members hub s else [ s ]
        in
        let all_want =
          List.for_all (fun m -> m.state = Want_commit) members
        in
        if all_want then
          match Ent_txn.Engine.violated_constraint hub.engine with
          | Some name ->
            Ent_txn.Engine.abort_group hub.engine (List.map (fun m -> m.txn) members);
            List.iter
              (fun m -> m.state <- Failed ("constraint violated: " ^ name))
              members
          | None ->
            List.iter
              (fun m ->
                Ent_txn.Engine.commit hub.engine m.txn;
                m.state <- Done)
              members
      end)
    hub.sessions

let reply_of_state session =
  match session.state with
  | Active -> Answered session.received
  | Parked _ -> Parked
  | Blocked_stmt _ -> Blocked
  | Want_commit -> Commit_pending
  | Done -> Committed
  | Failed reason -> Aborted reason

let run_classical session stmt =
  let hub = session.hub in
  let sp = Ent_txn.Engine.savepoint hub.engine session.txn in
  let access =
    Ent_txn.Engine.access hub.engine session.txn ~grounding:false
      ~lock_reads:hub.isolation.lock_classical_reads ()
  in
  match Ent_sql.Eval.exec_stmt access session.env stmt with
  | Ent_sql.Eval.Rows rows -> Rows rows
  | Ent_sql.Eval.Affected n -> Affected n
  | Ent_sql.Eval.Created -> Affected 0
  | exception Ent_txn.Engine.Blocked _ ->
    Ent_txn.Engine.rollback_to hub.engine session.txn sp;
    session.state <- Blocked_stmt stmt;
    Blocked
  | exception Ent_txn.Engine.Deadlock_victim _ ->
    abort_group hub session "deadlock";
    reply_of_state session
  | exception Ent_sql.Eval.Eval_error msg ->
    abort_group hub session msg;
    reply_of_state session

let execute session input =
  let hub = session.hub in
  (match session.state with
  | Done | Failed _ ->
    invalid_arg "Interactive.execute: session already finished"
  | Want_commit -> invalid_arg "Interactive.execute: commit pending"
  | Parked _ -> invalid_arg "Interactive.execute: waiting at an entangled query (poll instead)"
  | Blocked_stmt _ | Active -> ());
  match Ent_sql.Parser.parse_stmt input with
  | exception Ent_sql.Parser.Parse_error msg ->
    abort_group hub session ("parse error: " ^ msg);
    reply_of_state session
  | Ent_sql.Ast.Rollback ->
    abort_group hub session "rolled back";
    (* the caller asked for it, so report it as a plain abort *)
    Aborted "rolled back"
  | Ent_sql.Ast.Entangled e -> (
    match Translate.of_ast ~env:session.env e with
    | exception (Translate.Translate_error msg | Ir.Unsafe msg) ->
      abort_group hub session msg;
      reply_of_state session
    | query ->
      session.state <- Parked query;
      session.received <- [];
      evaluate_parked hub;
      (match session.state with
      | Active -> Answered session.received
      | _ -> reply_of_state session))
  | stmt ->
    session.state <- Active;
    run_classical session stmt

let poll session =
  let hub = session.hub in
  match session.state with
  | Parked _ ->
    evaluate_parked hub;
    reply_of_state session
  | Blocked_stmt stmt ->
    session.state <- Active;
    run_classical session stmt
  | Want_commit ->
    try_commits hub;
    reply_of_state session
  | Active | Done | Failed _ -> reply_of_state session

let commit session =
  (match session.state with
  | Active -> session.state <- Want_commit
  | Want_commit | Done | Failed _ -> ()
  | Parked _ | Blocked_stmt _ ->
    invalid_arg "Interactive.commit: statement still in progress");
  try_commits session.hub;
  reply_of_state session

let cancel session = abort_group session.hub session "cancelled"

open Ent_entangle

type t = { answer : Ir.t -> Ir.ground_atom list option }

let of_fn answer = { answer }

let scripted script =
  let remaining = ref script in
  of_fn (fun _query ->
      match !remaining with
      | [] -> failwith "Oracle.scripted: script exhausted"
      | ans :: rest ->
        remaining := rest;
        ans)

type solo_outcome =
  | Solo_committed
  | Solo_rolled_back
  | Solo_error of string

type solo_result = {
  outcome : solo_outcome;
  valid : bool;
  answers_given : Ir.ground_atom list list;
}

let run_solo engine (program : Program.t) oracle =
  let costs = Ent_sim.Cost.default in
  let isolation = Isolation.full in
  let task = Executor.make_task ~task_id:0 ~arrival:0.0 program in
  Executor.start engine costs task;
  let valid = ref true in
  let answers_given = ref [] in
  let rec loop () =
    match task.status with
    | Executor.Runnable ->
      Executor.step engine isolation costs task;
      loop ()
    | Executor.Waiting_entangled -> (
      match task.pending with
      | None -> { outcome = Solo_error "pending query missing"; valid = !valid; answers_given = List.rev !answers_given }
      | Some query -> (
        (* Validity check (Def 3.3): the answer must correspond to a
           grounding of the query on the current database. *)
        let access =
          Ent_txn.Engine.access engine (Executor.handle task) ~grounding:true ()
        in
        let groundings = Ground.compute ~access ~env:task.env query in
        match oracle.answer query with
        | Some atoms ->
          let matching =
            List.find_opt
              (fun (g : Ground.grounding) ->
                List.for_all (fun a -> List.mem a g.g_head) atoms
                && List.for_all (fun h -> List.mem h atoms) g.g_head)
              groundings
          in
          (match matching with
          | Some g ->
            answers_given := atoms :: !answers_given;
            Executor.deliver engine costs task (Coordinate.Answered g)
          | None ->
            (* invalid answer: deliver it anyway (the oracle is not
               constrained to be valid, §C.3.1), flag the execution *)
            valid := false;
            answers_given := atoms :: !answers_given;
            Executor.deliver engine costs task
              (Coordinate.Answered { g_head = atoms; g_post = [] }));
          loop ()
        | None ->
          answers_given := [] :: !answers_given;
          Executor.deliver engine costs task Coordinate.Empty;
          loop ()))
    | Executor.Waiting_lock ->
      { outcome = Solo_error "solo transaction blocked on a lock";
        valid = !valid;
        answers_given = List.rev !answers_given }
    | Executor.Ready -> (
      match Ent_txn.Engine.violated_constraint engine with
      | Some name ->
        Ent_txn.Engine.abort engine (Executor.handle task);
        { outcome = Solo_error ("constraint violated: " ^ name);
          valid = !valid;
          answers_given = List.rev !answers_given }
      | None ->
        Ent_txn.Engine.commit engine (Executor.handle task);
        { outcome = Solo_committed; valid = !valid; answers_given = List.rev !answers_given })
    | Executor.Failed Executor.Explicit_rollback ->
      { outcome = Solo_rolled_back; valid = !valid; answers_given = List.rev !answers_given }
    | Executor.Failed (Executor.Program_error msg) ->
      { outcome = Solo_error msg; valid = !valid; answers_given = List.rev !answers_given }
    | Executor.Failed Executor.Deadlock ->
      { outcome = Solo_error "deadlock in solo execution";
        valid = !valid;
        answers_given = List.rev !answers_given }
    | Executor.Failed (Executor.Si_conflict _) ->
      { outcome = Solo_error "snapshot conflict in solo execution";
        valid = !valid;
        answers_given = List.rev !answers_given }
  in
  loop ()

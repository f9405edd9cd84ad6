open Ent_storage

type t = {
  engine : Ent_txn.Engine.t;
  scheduler : Scheduler.t;
}

let create_with_engine ?config engine =
  { engine; scheduler = Scheduler.create ?config engine }

let create ?(wal = true) ?config () =
  let catalog = Catalog.create () in
  let engine = Ent_txn.Engine.create ~wal catalog in
  create_with_engine ?config engine

let engine t = t.engine
let scheduler t = t.scheduler
let catalog t = Ent_txn.Engine.catalog t.engine

let define_table t name columns =
  let schema =
    Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) columns)
  in
  ignore (Ent_txn.Engine.create_table t.engine name schema)

let load_row t name values =
  ignore (Ent_txn.Engine.load t.engine name (Array.of_list values))

let add_index t name columns =
  let table = Catalog.find_exn (catalog t) name in
  let schema = Table.schema table in
  Table.add_index table
    ~positions:(List.map (Schema.index_of schema) columns)

let add_constraint t name predicate =
  Ent_txn.Engine.add_constraint t.engine ~name predicate

let observe t = Scheduler.observe t.scheduler

let submit t program = Scheduler.submit t.scheduler program
let submit_string t ?label input = submit t (Program.of_string ?label input)
let load_script t ?(levels = Isolation.All_2pl) items =
  let access = Ent_sql.Eval.direct_access (catalog t) in
  let env = Ent_sql.Eval.fresh_env () in
  let count = ref 0 in
  List.filter_map
    (function
      | Ent_sql.Parser.Stmt (stmt, _) ->
        ignore (Ent_sql.Eval.exec_stmt access env stmt);
        None
      | Ent_sql.Parser.Program ast ->
        incr count;
        let label = Printf.sprintf "txn-%d" !count in
        let isolation = Isolation.level levels !count in
        Some (submit t (Program.make ~isolation ~label ast), label))
    items

let drain t = Scheduler.drain t.scheduler
let run_once t = Scheduler.run_once t.scheduler
let outcome t id = Scheduler.outcome t.scheduler id
let results t = Scheduler.results t.scheduler
let answers_of t id = Scheduler.answers_of t.scheduler id
let now t = Scheduler.now t.scheduler
let advance_time t seconds = Scheduler.advance_time t.scheduler seconds
let stats t = Scheduler.stats t.scheduler

let query t input =
  match Ent_sql.Parser.parse_stmt input with
  | Ent_sql.Ast.Select sel ->
    Ent_sql.Eval.select_rows
      (Ent_sql.Eval.direct_access (catalog t))
      (Ent_sql.Eval.fresh_env ()) sel
  | _ -> invalid_arg "Manager.query: expected a SELECT"

let recover_records ?config records =
  let engine, analysis = Ent_txn.Engine.recover records in
  let fresh = { engine; scheduler = Scheduler.create ?config engine } in
  List.iter
    (fun serialized ->
      ignore (Scheduler.submit fresh.scheduler (Program.of_serialized serialized)))
    analysis.pool;
  fresh

let checkpoint_to_file t path =
  match Ent_txn.Engine.log t.engine with
  | None -> invalid_arg "Manager.checkpoint_to_file: system has no WAL"
  | Some wal ->
    Ent_txn.Engine.checkpoint t.engine;
    (* logged after the checkpoint so it survives the compaction *)
    Ent_txn.Engine.log_pool_snapshot t.engine
      (List.map Program.to_string (Scheduler.dormant_programs t.scheduler));
    Ent_txn.Wal.compact wal;
    Ent_txn.Wal.save wal path

let recover_from_file ?config path =
  recover_records ?config (Ent_txn.Wal.records (Ent_txn.Wal.load path))

let crash_and_recover t =
  match Ent_txn.Engine.log t.engine with
  | None -> invalid_arg "Manager.crash_and_recover: system has no WAL"
  | Some wal ->
    recover_records
      ~config:(Scheduler.config t.scheduler)
      (Ent_txn.Wal.crash_records wal)

(* Shared test infrastructure, linked into every suite:

   - [to_alcotest]: a seed-reporting QCheck2 -> Alcotest adapter. All
     randomized tests draw their generator state from one session seed,
     honour [QCHECK_SEED] for exact replay, and print the seed next to
     any failure (see README, "Randomized tests").
   - QCheck2 generators for schemas, tuples, entangled programs,
     coherent WAL schedules and fault plans.
   - The travel-workload builders (manager setup, entangled program
     sources, crash workloads, the Figure 1 catalog) previously
     duplicated across test_core, test_entangle and test_crash. *)

open Ent_storage
module Manager = Ent_core.Manager
module Scheduler = Ent_core.Scheduler
module Program = Ent_core.Program
module Wal = Ent_txn.Wal

(* --- randomized-test seeds --- *)

let seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> failwith "QCHECK_SEED must be an integer")
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

(* --- per-transaction isolation levels (the ENT_ISOLATION knob) --- *)

(* Suite-wide isolation mode: "2pl" (default), "si", "mixed".
   Randomized scheduler-level tests tag their generated programs
   through [assign_isolation], so the whole battery replays under
   snapshot or mixed levels without touching the tests themselves. *)
let isolation_mode =
  lazy
    (match
       Option.map String.lowercase_ascii (Sys.getenv_opt "ENT_ISOLATION")
     with
    | None | Some "2pl" -> `All_2pl
    | Some ("si" | "snapshot") -> `All_si
    | Some "mixed" -> `Mixed
    | Some other ->
      failwith ("ENT_ISOLATION must be 2pl, si or mixed, not " ^ other))

let isolation_mode_name () =
  match Lazy.force isolation_mode with
  | `All_2pl -> "2pl"
  | `All_si -> "si"
  | `Mixed -> "mixed"

(* Level of the [i]-th program of a generated batch under the session
   mode. Mixed alternates deterministically: a failing seed plus the
   mode reproduces the exact assignment. *)
let level_for i =
  match Lazy.force isolation_mode with
  | `All_2pl -> Ent_txn.Engine.Serializable_2pl
  | `All_si -> Ent_txn.Engine.Snapshot
  | `Mixed ->
    if i land 1 = 1 then Ent_txn.Engine.Snapshot
    else Ent_txn.Engine.Serializable_2pl

(* Retag a generated batch with the session's levels, preserving order
   (position decides the level under mixed). *)
let assign_isolation programs =
  List.mapi
    (fun i (p : Program.t) -> { p with isolation = level_for i })
    programs

(* "2pl,si,2pl,…" for a batch — printed beside a failing seed so the
   per-transaction assignment is part of the repro line. *)
let isolation_signature programs =
  String.concat ","
    (List.map
       (fun (p : Program.t) ->
         match p.isolation with
         | Ent_txn.Engine.Serializable_2pl -> "2pl"
         | Ent_txn.Engine.Snapshot -> "si")
       programs)

(* Convert a QCheck2 test, seeding it from the session seed and
   pointing at the replay knobs when it fails. The isolation mode is
   part of the replay line: the same seed under a different
   ENT_ISOLATION is a different schedule. *)
let to_alcotest test =
  let seed = Lazy.force seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  let run () =
    try run ()
    with exn ->
      Printf.eprintf
        "\n\
         [qcheck] failing seed: %d, isolation %s (replay with QCHECK_SEED=%d \
         ENT_ISOLATION=%s)\n\
         %!"
        seed
        (isolation_mode_name ())
        seed
        (isolation_mode_name ());
      raise exn
  in
  (name, speed, run)

(* --- schema / tuple generators --- *)

let col_type_gen =
  QCheck2.Gen.oneofl [ Schema.T_bool; Schema.T_int; Schema.T_str; Schema.T_date ]

let schema_gen =
  let open QCheck2.Gen in
  let* tys = list_size (int_range 1 4) col_type_gen in
  return
    (Schema.make
       (List.mapi
          (fun i ty -> { Schema.name = Printf.sprintf "c%d" i; ty })
          tys))

let value_gen ty =
  let open QCheck2.Gen in
  let base =
    match ty with
    | Schema.T_bool -> map (fun b -> Value.Bool b) bool
    | Schema.T_int -> map (fun n -> Value.Int n) (int_range (-50) 50)
    | Schema.T_str ->
      map (fun s -> Value.Str s)
        (string_size ~gen:(char_range 'a' 'e') (int_range 0 4))
    | Schema.T_date ->
      map (fun d -> Value.date_of_ymd ~y:2011 ~m:5 ~d) (int_range 1 28)
    | Schema.T_any -> map (fun n -> Value.Int n) (int_range 0 9)
  in
  frequency [ (1, return Value.Null); (7, base) ]

(* A tuple inhabiting [schema] ([Null] inhabits every column type). *)
let tuple_gen schema =
  let open QCheck2.Gen in
  let* values =
    flatten_l (List.map (fun (c : Schema.column) -> value_gen c.ty)
                 (Schema.columns schema))
  in
  return (Array.of_list values)

let schema_tuple_gen =
  let open QCheck2.Gen in
  let* schema = schema_gen in
  let* tuple = tuple_gen schema in
  return (schema, tuple)

(* --- fault-plan generator --- *)

(* The real registry's site names (plans over unknown sites are legal
   but never fire). *)
let known_sites =
  [ "txn.wal.append"; "txn.wal.append.post"; "txn.wal.save";
    "core.scheduler.step"; "core.scheduler.group_commit";
    "core.scheduler.pool_snapshot"; "core.entangle.timeout";
    "entangle.coordinate.round_abort"; "entangle.coordinate.partner_drop" ]

let plan_gen =
  let open QCheck2.Gen in
  let arm =
    let* site = oneofl known_sites in
    let* hit = int_range 1 9 in
    let* action =
      oneofl [ Ent_fault.Plan.Crash; Torn; Fail; Drop ]
    in
    return { Ent_fault.Plan.site; hit; action }
  in
  list_size (int_range 0 4) arm

(* --- Appendix C schedule generator --- *)

(* Valid schedules over four named objects, by simulating transactions
   with states Active / Grounding / Done: the seed list drives which
   transaction acts, how, and on which object; entanglements join the
   acting transaction with every other one currently grounding. *)
let schedule_of_seed (n_txns, seed) =
  let open Ent_schedule.History in
  let objects = [| Named "x"; Named "y"; Named "z"; Named "w" |] in
  let state = Array.make (n_txns + 1) `Active in
  let ops = ref [] in
  let next_event = ref 1 in
  let emit op = ops := op :: !ops in
  let grounding_others me =
    List.filter
      (fun j -> j <> me && state.(j) = `Grounding)
      (List.init n_txns (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      let txn = 1 + (r mod n_txns) in
      let action = (r / 7) mod 10 in
      let obj = objects.((r / 3) mod Array.length objects) in
      match state.(txn) with
      | `Done -> ()
      | `Active ->
        if action < 4 then emit (Read (txn, obj))
        else if action < 7 then emit (Write (txn, obj))
        else if action < 9 then begin
          emit (Ground_read (txn, obj));
          state.(txn) <- `Grounding
        end
        else begin
          emit (if action = 9 then Commit txn else Abort txn);
          state.(txn) <- `Done
        end
      | `Grounding ->
        if action < 3 then emit (Ground_read (txn, obj))
        else if action < 8 then begin
          match grounding_others txn with
          | [] -> ()
          | others ->
            let participants = txn :: others in
            emit (Entangle (!next_event, participants));
            incr next_event;
            List.iter (fun j -> state.(j) <- `Active) participants
        end
        else begin
          emit (Abort txn);
          state.(txn) <- `Done
        end)
    seed;
  (* terminate the stragglers *)
  for txn = 1 to n_txns do
    match state.(txn) with
    | `Active -> emit (Commit txn)
    | `Grounding -> emit (Abort txn)
    | `Done -> ()
  done;
  List.rev !ops

let seeded_schedule_gen =
  QCheck2.Gen.(
    pair (int_range 2 4) (list_size (int_range 8 40) (int_range 0 10_000)))

let print_seeded_schedule seed =
  Format.asprintf "%a" Ent_schedule.History.pp (schedule_of_seed seed)

(* --- WAL schedule generator --- *)

(* A coherent small log: tables created first; each transaction begins,
   writes, then commits, aborts or is left in flight; inserts use
   globally fresh row ids so survivor replay never restores onto an
   occupied id; entanglement groups only span committed transactions
   (atomic groups, so the analysis is victim-free and redo idempotence
   is exact). *)
let schedule_gen =
  let open QCheck2.Gen in
  let* schemas = list_size (int_range 1 2) schema_gen in
  let schemas = Array.of_list schemas in
  let op_gen =
    let* ti = int_range 0 (Array.length schemas - 1) in
    let* kind = int_range 0 9 in
    let* sel = int_range 0 999 in
    let* tup = tuple_gen schemas.(ti) in
    return (ti, kind, sel, tup)
  in
  let* txns =
    list_size (int_range 1 6)
      (pair (int_range 0 99) (list_size (int_range 1 4) op_gen))
  in
  let* with_snapshot = bool in
  let table_name i = Printf.sprintf "T%d" i in
  let records = ref [] in
  let emit r = records := r :: !records in
  Array.iteri
    (fun i s ->
      emit
        (Wal.Create
           { table = table_name i;
             columns =
               List.map (fun (c : Schema.column) -> (c.name, c.ty))
                 (Schema.columns s) }))
    schemas;
  let next_row = Array.make (Array.length schemas) 0 in
  let live = Array.make (Array.length schemas) [] in
  let committed = ref [] in
  List.iteri
    (fun i (roll, ops) ->
      let txn = i + 1 in
      emit (Wal.Begin txn);
      List.iter
        (fun (ti, kind, sel, tup) ->
          let table = table_name ti in
          if live.(ti) = [] || kind < 5 then begin
            let row = next_row.(ti) in
            next_row.(ti) <- row + 1;
            emit (Wal.Write { txn; table; row; before = None; after = Some tup });
            live.(ti) <- (row, tup) :: live.(ti)
          end
          else
            let row, old = List.nth live.(ti) (sel mod List.length live.(ti)) in
            if kind < 8 then begin
              emit
                (Wal.Write { txn; table; row; before = Some old; after = Some tup });
              live.(ti) <- (row, tup) :: List.remove_assoc row live.(ti)
            end
            else begin
              emit (Wal.Write { txn; table; row; before = Some old; after = None });
              live.(ti) <- List.remove_assoc row live.(ti)
            end)
        ops;
      if roll < 75 then begin
        emit (Wal.Commit txn);
        committed := txn :: !committed
      end
      else if roll < 95 then emit (Wal.Abort txn))
    txns;
  (* pair up committed transactions into (atomic) entanglement groups *)
  let rec pair_up event = function
    | a :: b :: rest ->
      emit (Wal.Entangle_group { event; members = [ a; b ] });
      pair_up (event + 1) rest
    | _ -> ()
  in
  pair_up 1 (List.rev !committed);
  if with_snapshot then emit (Wal.Pool_snapshot []);
  return (List.rev !records)

(* --- the travel world (test_core's fixture) --- *)

let date y m d = Value.date_of_ymd ~y ~m ~d

(* travel system: Flights + Hotels + Reserve bookkeeping *)
let travel_manager ?config () =
  let m = Manager.create ?config () in
  Manager.define_table m "Flights"
    [ ("fno", Schema.T_int); ("fdate", Schema.T_date); ("dest", Schema.T_str) ];
  Manager.define_table m "Hotels"
    [ ("hid", Schema.T_int); ("location", Schema.T_str) ];
  Manager.define_table m "Reserve"
    [ ("name", Schema.T_str); ("what", Schema.T_str); ("item", Schema.T_int) ];
  List.iter
    (fun (fno, d, dest) -> Manager.load_row m "Flights" [ Int fno; d; Str dest ])
    [ (122, date 2011 5 3, "LA");
      (123, date 2011 5 4, "LA");
      (124, date 2011 5 3, "LA");
      (235, date 2011 5 5, "Paris") ];
  List.iter
    (fun (hid, loc) -> Manager.load_row m "Hotels" [ Int hid; Str loc ])
    [ (7, "LA"); (8, "LA"); (9, "Paris") ];
  m

let flight_program ?(timeout = "") me partner =
  Printf.sprintf
    "BEGIN TRANSACTION%s;\n\
     SELECT '%s', fno AS @fno, fdate INTO ANSWER FlightRes\n\
     WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
     AND ('%s', fno, fdate) IN ANSWER FlightRes CHOOSE 1;\n\
     INSERT INTO Reserve VALUES ('%s', 'flight', @fno);\n\
     COMMIT;"
    timeout me partner me

(* Figure 2: coordinate on flight, then on hotel for the arrival day. *)
let travel_program me partner =
  Printf.sprintf
    "BEGIN TRANSACTION;\n\
     SELECT '%s', fno AS @fno, fdate AS @ArrivalDay INTO ANSWER FlightRes\n\
     WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
     AND ('%s', fno, fdate) IN ANSWER FlightRes CHOOSE 1;\n\
     INSERT INTO Reserve VALUES ('%s', 'flight', @fno);\n\
     SET @StayLength = '2011-05-06' - @ArrivalDay;\n\
     SELECT '%s', hid AS @hid, @ArrivalDay, @StayLength INTO ANSWER HotelRes\n\
     WHERE (hid) IN (SELECT hid FROM Hotels WHERE location='LA')\n\
     AND ('%s', hid, @ArrivalDay, @StayLength) IN ANSWER HotelRes CHOOSE 1;\n\
     INSERT INTO Reserve VALUES ('%s', 'hotel', @hid);\n\
     COMMIT;"
    me partner me me partner me

(* Figure 3a: Minnie entangles with Mickey, then rolls back. *)
let minnie_aborts_program =
  "BEGIN TRANSACTION;\n\
   SELECT 'Minnie', fno AS @fno, fdate INTO ANSWER FlightRes\n\
   WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
   AND ('Mickey', fno, fdate) IN ANSWER FlightRes CHOOSE 1;\n\
   ROLLBACK;\n\
   COMMIT;"

let reserve_rows m =
  List.map
    (fun row ->
      match row with
      | [| Value.Str name; Value.Str what; item |] ->
        (name, what, Value.to_string item)
      | _ -> Alcotest.fail "unexpected Reserve row shape")
    (Manager.query m "SELECT name, what, item FROM Reserve")

let outcome_name = function
  | Some Scheduler.Committed -> "committed"
  | Some Scheduler.Timed_out -> "timed-out"
  | Some Scheduler.Rolled_back -> "rolled-back"
  | Some (Scheduler.Errored msg) -> "errored:" ^ msg
  | None -> "pending"

let check_outcome m name expected id =
  Alcotest.(check string) name expected (outcome_name (Manager.outcome m id))

(* seats bookkeeping: Stock(item, left) must never go negative *)
let stock_manager ?config () =
  let m = Manager.create ?config () in
  Manager.define_table m "Stock"
    [ ("item", Schema.T_str); ("left", Schema.T_int) ];
  Manager.load_row m "Stock" [ Str "seat"; Int 1 ];
  Manager.add_constraint m "no-negative-stock" (fun catalog ->
      match Catalog.find catalog "Stock" with
      | None -> true
      | Some table ->
        Table.fold
          (fun _ row ok ->
            ok
            &&
            match Tuple.get row 1 with
            | Value.Int n -> n >= 0
            | _ -> true)
          table true);
  m

(* --- entangled program generators --- *)

(* One complete pair over the travel fixture's Flights table. *)
let entangled_pair_gen =
  let open QCheck2.Gen in
  let* i = int_range 0 999 in
  let a = Printf.sprintf "u%da" i and b = Printf.sprintf "u%db" i in
  match
    assign_isolation
      [ Program.of_string ~label:a (flight_program a b);
        Program.of_string ~label:b (flight_program b a) ]
  with
  | [ pa; pb ] -> return (pa, pb)
  | _ -> assert false

(* A mixed batch over the travel fixture: complete pairs, partnerless
   entangled programs and classical rollbacks, shuffled by generation
   order. Lonely programs are the only ones that stay dormant. *)
let entangled_batch_gen =
  let open QCheck2.Gen in
  let* pairs = int_range 0 4 in
  let* lonely = int_range 0 2 in
  let* rollbacks = int_range 0 2 in
  let pair_programs =
    List.concat
      (List.init pairs (fun i ->
           let a = Printf.sprintf "p%da" i and b = Printf.sprintf "p%db" i in
           [ Program.of_string ~label:a (flight_program a b);
             Program.of_string ~label:b (flight_program b a) ]))
  in
  let lonely_programs =
    List.init lonely (fun i ->
        Program.of_string ~label:(Printf.sprintf "lone%d" i)
          (flight_program (Printf.sprintf "lone%d" i) "nobody"))
  in
  let rollback_programs =
    List.init rollbacks (fun i ->
        Program.of_string ~label:(Printf.sprintf "rb%d" i)
          "BEGIN TRANSACTION;\n\
           INSERT INTO Reserve VALUES ('r', 'flight', 1);\n\
           ROLLBACK;\nCOMMIT;")
  in
  return
    (assign_isolation (pair_programs @ lonely_programs @ rollback_programs),
     lonely)

(* --- the Figure 1 fixture (test_entangle's) --- *)

let may3 = date 2011 5 3
let may4 = date 2011 5 4

let figure1_catalog () =
  let cat = Catalog.create () in
  let flights =
    Catalog.create_table cat "Flights"
      (Schema.make
         [ { name = "fno"; ty = T_int };
           { name = "fdate"; ty = T_date };
           { name = "dest"; ty = T_str } ])
  in
  let airlines =
    Catalog.create_table cat "Airlines"
      (Schema.make
         [ { name = "fno"; ty = T_int }; { name = "airline"; ty = T_str } ])
  in
  List.iter
    (fun row -> ignore (Table.insert flights row))
    [ [| Value.Int 122; may3; Value.Str "LA" |];
      [| Value.Int 123; may4; Value.Str "LA" |];
      [| Value.Int 124; may3; Value.Str "LA" |];
      [| Value.Int 235; date 2011 5 5; Value.Str "Paris" |] ];
  List.iter
    (fun row -> ignore (Table.insert airlines row))
    [ [| Value.Int 122; Value.Str "United" |];
      [| Value.Int 123; Value.Str "United" |];
      [| Value.Int 124; Value.Str "USAir" |];
      [| Value.Int 235; Value.Str "Delta" |] ];
  cat

let parse_entangled input =
  match Ent_sql.Parser.parse_stmt input with
  | Ent_sql.Ast.Entangled e -> e
  | _ -> Alcotest.fail "expected an entangled statement"

let translate ?(env = Ent_sql.Eval.fresh_env ()) input =
  Ent_entangle.Translate.of_ast ~env (parse_entangled input)

let mickey_src =
  "SELECT 'Mickey', fno, fdate INTO ANSWER R WHERE (fno, fdate) IN (SELECT \
   fno, fdate FROM Flights WHERE dest='LA') AND ('Minnie', fno, fdate) IN \
   ANSWER R CHOOSE 1"

let minnie_src =
  "SELECT 'Minnie', fno, fdate INTO ANSWER R WHERE (fno, fdate) IN (SELECT \
   F.fno, F.fdate FROM Flights F, Airlines A WHERE F.dest='LA' AND F.fno = \
   A.fno AND A.airline='United') AND ('Mickey', fno, fdate) IN ANSWER R \
   CHOOSE 1"

let ground cat query =
  Ent_entangle.Ground.compute
    ~access:(Ent_sql.Eval.direct_access cat)
    ~env:(Ent_sql.Eval.fresh_env ()) query

let flights_only_catalog n =
  let cat = Catalog.create () in
  let flights =
    Catalog.create_table cat "Flights"
      (Schema.make [ { name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ])
  in
  for i = 1 to n do
    ignore (Table.insert flights [| Value.Int i; Value.Str "LA" |])
  done;
  cat

let pair_query me partner =
  Printf.sprintf
    "SELECT '%s', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM Flights \
     WHERE dest='LA') AND ('%s', fno) IN ANSWER R CHOOSE 1"
    me partner

(* --- crash workloads (test_crash's fixture) --- *)

let run_workload ~pairs ~with_rollbacks =
  let config =
    {
      Scheduler.default_config with
      trigger = Scheduler.Every_arrivals 4;
      snapshot_pool = true;
    }
  in
  let world = Ent_workload.Travel.build ~users:60 ~cities:6 ~config ~wal:true () in
  let programs =
    Ent_workload.Gen.batch world ~transactional:true Ent_workload.Gen.Entangled
      ~n:(2 * pairs) ~tag_base:0
  in
  let programs =
    if with_rollbacks then
      List.mapi
        (fun i (p : Program.t) ->
          if i mod 5 = 1 then
            let ast : Ent_sql.Ast.program =
              {
                p.ast with
                body =
                  List.filteri (fun j _ -> j < 2) p.ast.body
                  @ [ (Ent_sql.Ast.Rollback, Ent_sql.Ast.no_pos) ];
              }
            in
            Program.make ~label:(p.label ^ "-abort") ast
          else p)
        programs
    else programs
  in
  List.iter
    (fun p -> ignore (Manager.submit world.Ent_workload.Travel.manager p))
    (assign_isolation programs);
  Manager.drain world.Ent_workload.Travel.manager;
  world

let dump_table catalog name =
  match Catalog.find catalog name with
  | None -> []
  | Some table ->
    List.map
      (fun (id, row) -> (id, List.map Value.to_string (Tuple.to_list row)))
      (Table.to_list table)

(* Group atomicity (the §4 entanglement-aware recovery rule), shared
   with the entsim harness. *)
let group_atomic = Ent_entsim.Harness.group_atomic

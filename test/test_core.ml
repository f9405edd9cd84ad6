(* Integration tests for the entangled transaction manager: the
   run-based scheduler (§4), group commit / widowed-transaction
   prevention (§3.3.3), timeouts, the Figure 4 walkthrough, oracles
   (Defs 3.2-3.4), and crash recovery of middleware state (§5.1). *)

open Ent_storage
open Ent_core

(* the travel fixture and its helpers are shared across suites *)
let date = Gen.date
let travel_manager = Gen.travel_manager
let flight_program = Gen.flight_program
let travel_program = Gen.travel_program
let reserve_rows = Gen.reserve_rows
let outcome_name = Gen.outcome_name
let check_outcome = Gen.check_outcome

(* --- classical transactions through the manager --- *)

let test_classical_transaction () =
  let m = travel_manager () in
  let id =
    Manager.submit_string m
      "BEGIN TRANSACTION;\n\
       INSERT INTO Reserve VALUES ('Solo', 'flight', 122);\n\
       COMMIT;"
  in
  Manager.drain m;
  check_outcome m "committed" "committed" id;
  Alcotest.(check int) "booking written" 1 (List.length (reserve_rows m))

let test_classical_rollback () =
  let m = travel_manager () in
  let id =
    Manager.submit_string m
      "BEGIN TRANSACTION;\n\
       INSERT INTO Reserve VALUES ('Solo', 'flight', 122);\n\
       ROLLBACK;\n\
       COMMIT;"
  in
  Manager.drain m;
  check_outcome m "rolled back" "rolled-back" id;
  Alcotest.(check int) "no booking" 0 (List.length (reserve_rows m))

(* The scheduler keeps every finished task for outcome and answer
   queries, so what a finished task holds stays in the heap: its
   transaction's handle and access records must not. 73.48 live words
   per task is what 10 000 finished NoSocial tasks retained (Reserve
   rows included) when each statement still built its own access
   record. *)
let test_finished_tasks_retained_words () =
  let world = Ent_workload.Travel.build () in
  let n = 10_000 in
  let programs =
    Ent_workload.Gen.batch world ~transactional:true Ent_workload.Gen.No_social ~n
      ~tag_base:0
  in
  let m = world.manager in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let before = live_words () in
  let ids =
    List.mapi
      (fun i p ->
        let id = Manager.submit m p in
        if (i + 1) mod 100 = 0 then Manager.run_once m;
        id)
      programs
  in
  Manager.drain m;
  let per_task = float_of_int (live_words () - before) /. float_of_int n in
  ignore (Sys.opaque_identity programs);
  List.iter (check_outcome m "nosocial" "committed") ids;
  if per_task > 73.5 then
    Alcotest.failf "%.2f live words retained per finished task" per_task

(* --- entangled coordination --- *)

let test_mickey_minnie_commit () =
  let m = travel_manager () in
  let mickey = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (flight_program "Minnie" "Mickey") in
  Manager.drain m;
  check_outcome m "mickey" "committed" mickey;
  check_outcome m "minnie" "committed" minnie;
  let rows = reserve_rows m in
  Alcotest.(check int) "two bookings" 2 (List.length rows);
  (match rows with
  | [ (_, _, f1); (_, _, f2) ] ->
    Alcotest.(check string) "same flight" f1 f2
  | _ -> Alcotest.fail "row count");
  let s = Manager.stats m in
  Alcotest.(check int) "one entangle event" 1 s.entangle_events

let test_figure2_multi_query () =
  let m = travel_manager () in
  let mickey = Manager.submit_string m (travel_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (travel_program "Minnie" "Mickey") in
  Manager.drain m;
  check_outcome m "mickey" "committed" mickey;
  check_outcome m "minnie" "committed" minnie;
  let rows = reserve_rows m in
  Alcotest.(check int) "four bookings" 4 (List.length rows);
  let flights = List.filter (fun (_, what, _) -> what = "flight") rows in
  let hotels = List.filter (fun (_, what, _) -> what = "hotel") rows in
  (match flights, hotels with
  | [ (_, _, f1); (_, _, f2) ], [ (_, _, h1); (_, _, h2) ] ->
    Alcotest.(check string) "same flight" f1 f2;
    Alcotest.(check string) "same hotel" h1 h2
  | _ -> Alcotest.fail "booking shapes");
  let s = Manager.stats m in
  Alcotest.(check int) "two entangle events" 2 s.entangle_events

let test_donald_waits_and_times_out () =
  let m = travel_manager () in
  let donald =
    Manager.submit_string m
      (flight_program ~timeout:" WITH TIMEOUT 0 SECONDS" "Donald" "Daffy")
  in
  Manager.drain m;
  check_outcome m "donald times out" "timed-out" donald;
  Alcotest.(check int) "no booking" 0 (List.length (reserve_rows m))

let test_donald_stays_dormant_without_timeout () =
  let m = travel_manager () in
  let donald = Manager.submit_string m (flight_program "Donald" "Daffy") in
  Manager.drain m;
  Alcotest.(check string) "pending" "pending" (outcome_name (Manager.outcome m donald));
  Alcotest.(check (list int)) "in dormant pool" [ donald ]
    (Scheduler.dormant (Manager.scheduler m));
  (* Daffy finally arrives: both commit. *)
  let daffy = Manager.submit_string m (flight_program "Daffy" "Donald") in
  Manager.drain m;
  check_outcome m "donald" "committed" donald;
  check_outcome m "daffy" "committed" daffy

(* A dormant -T straggler re-executes from the top every run. Its
   postcondition names the partner it read into [@friend]; an UPDATE
   commits while it is dormant, so its next run must translate the
   entangled query again with the new value, and the partner keyed on
   that value must find it. Reusing the last run's translation would
   keep waiting for Goofy. The grounding body does not read [@friend],
   so the grounding stays a cache hit under the new query. *)
let test_straggler_rereads_host_value () =
  let config = { Scheduler.default_config with trigger = Scheduler.Manual } in
  let m = travel_manager ~config () in
  Manager.define_table m "Pref" [ ("who", Schema.T_str); ("friend", Schema.T_str) ];
  Manager.load_row m "Pref" [ Str "Mickey"; Str "Goofy" ];
  let mickey =
    Manager.submit_string m
      "BEGIN TRANSACTION;\n\
       SELECT friend AS @friend FROM Pref WHERE who = 'Mickey';\n\
       SELECT 'Mickey', fno AS @fno, fdate INTO ANSWER FlightRes\n\
       WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
       AND (@friend, fno, fdate) IN ANSWER FlightRes CHOOSE 1;\n\
       INSERT INTO Reserve VALUES ('Mickey', 'flight', @fno);\n\
       COMMIT;"
  in
  (* two runs without a partner: the second reuses the first's work *)
  Manager.run_once m;
  Manager.run_once m;
  Alcotest.(check (list int)) "mickey dormant" [ mickey ]
    (Scheduler.dormant (Manager.scheduler m));
  (* the UPDATE commits between runs: in a run, the dormant straggler
     would hold the row's S lock until it aborts *)
  let engine = Manager.engine m in
  let txn = Ent_txn.Engine.begin_txn engine in
  ignore
    (Ent_sql.Eval.exec_stmt
       (Ent_txn.Engine.access engine txn ~grounding:false ())
       (Ent_sql.Eval.fresh_env ())
       (Ent_sql.Parser.parse_stmt
          "UPDATE Pref SET friend = 'Minnie' WHERE who = 'Mickey'"));
  Ent_txn.Engine.commit engine txn;
  let gstats () = Scheduler.gcache_stats (Manager.scheduler m) in
  let hits, misses, _ = gstats () in
  Manager.run_once m;
  Alcotest.(check string) "mickey still pending" "pending"
    (outcome_name (Manager.outcome m mickey));
  let hits', misses', _ = gstats () in
  Alcotest.(check (pair int int)) "the new query grounds from cache"
    (hits + 1, misses) (hits', misses');
  let minnie = Manager.submit_string m (flight_program "Minnie" "Mickey") in
  Manager.run_once m;
  check_outcome m "minnie" "committed" minnie;
  check_outcome m "mickey" "committed" mickey

let test_figure4_walkthrough () =
  (* Mickey and Minnie coordinate on flight then hotel; Donald waits
     for Daffy. One run: Mickey & Minnie commit, Donald aborts back to
     the pool. *)
  let config =
    { Scheduler.default_config with trigger = Scheduler.Manual }
  in
  let m = travel_manager ~config () in
  let mickey = Manager.submit_string m (travel_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (travel_program "Minnie" "Mickey") in
  let donald = Manager.submit_string m (flight_program "Donald" "Daffy") in
  Manager.run_once m;
  check_outcome m "mickey committed" "committed" mickey;
  check_outcome m "minnie committed" "committed" minnie;
  Alcotest.(check string) "donald pending" "pending"
    (outcome_name (Manager.outcome m donald));
  Alcotest.(check (list int)) "donald back in pool" [ donald ]
    (Scheduler.dormant (Manager.scheduler m));
  let s = Manager.stats m in
  Alcotest.(check int) "runs" 1 s.runs;
  Alcotest.(check bool) "several coordination rounds" true
    (s.coordination_rounds >= 2);
  Alcotest.(check int) "donald repooled once" 1 s.repooled

let test_empty_success_proceeds () =
  (* Structural partners, but no LA flights at all: both queries get an
     empty (successful) answer and the transactions run to commit; the
     booking inserts a NULL item. *)
  let m = Manager.create () in
  Manager.define_table m "Flights"
    [ ("fno", Schema.T_int); ("fdate", Schema.T_date); ("dest", Schema.T_str) ];
  Manager.define_table m "Reserve"
    [ ("name", Schema.T_str); ("what", Schema.T_str); ("item", Schema.T_int) ];
  let mickey = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (flight_program "Minnie" "Mickey") in
  Manager.drain m;
  check_outcome m "mickey" "committed" mickey;
  check_outcome m "minnie" "committed" minnie;
  match Manager.query m "SELECT item FROM Reserve" with
  | [ [| Value.Null |]; [| Value.Null |] ] -> ()
  | _ -> Alcotest.fail "expected two NULL bookings"

(* --- widowed-transaction prevention (Figure 3a) --- *)

let minnie_aborts_program = Gen.minnie_aborts_program

let test_group_commit_prevents_widow () =
  let m = travel_manager () in
  let mickey = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m ~label:"minnie-aborts" minnie_aborts_program in
  Manager.drain m;
  (* Minnie rolled back after entangling; Mickey must NOT commit on the
     assumption that Minnie travels with him. He aborts and retries --
     forever partnerless, so he stays in the pool. *)
  check_outcome m "minnie rolled back" "rolled-back" minnie;
  Alcotest.(check string) "mickey not committed" "pending"
    (outcome_name (Manager.outcome m mickey));
  Alcotest.(check int) "no bookings at all" 0 (List.length (reserve_rows m))

let test_no_group_commit_admits_widow () =
  (* Same scenario at the relaxed level: Mickey commits a booking based
     on Minnie's aborted promise — the widowed-transaction anomaly. *)
  let config =
    { Scheduler.default_config with isolation = Isolation.no_group_commit }
  in
  let m = travel_manager ~config () in
  let mickey = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let _minnie = Manager.submit_string m ~label:"minnie-aborts" minnie_aborts_program in
  Manager.drain m;
  check_outcome m "mickey widowed but committed" "committed" mickey;
  let rows = reserve_rows m in
  Alcotest.(check int) "mickey's orphan booking exists" 1 (List.length rows)

(* --- oracles --- *)

let test_oracle_valid_execution () =
  let m = travel_manager () in
  let program = Program.of_string (flight_program "Mickey" "Minnie") in
  let oracle =
    Oracle.scripted
      [ Some [ ("FlightRes", [ Value.Str "Mickey"; Value.Int 122; date 2011 5 3 ]) ] ]
  in
  let result = Oracle.run_solo (Manager.engine m) program oracle in
  (match result.outcome with
  | Oracle.Solo_committed -> ()
  | _ -> Alcotest.fail "solo execution failed");
  Alcotest.(check bool) "valid (Def 3.4)" true result.valid;
  Alcotest.(check int) "booking written" 1 (List.length (reserve_rows m))

let test_oracle_invalid_answer_flagged () =
  let m = travel_manager () in
  let program = Program.of_string (flight_program "Mickey" "Minnie") in
  (* flight 999 is not a grounding of Mickey's query on this database *)
  let oracle =
    Oracle.scripted
      [ Some [ ("FlightRes", [ Value.Str "Mickey"; Value.Int 999; date 2011 5 3 ]) ] ]
  in
  let result = Oracle.run_solo (Manager.engine m) program oracle in
  Alcotest.(check bool) "invalid execution detected" false result.valid

let test_oracle_empty_answer () =
  let m = travel_manager () in
  let program = Program.of_string (flight_program "Mickey" "Minnie") in
  let result = Oracle.run_solo (Manager.engine m) program (Oracle.scripted [ None ]) in
  (match result.outcome with
  | Oracle.Solo_committed -> ()
  | _ -> Alcotest.fail "empty answer should still commit");
  Alcotest.(check bool) "empty answers are valid" true result.valid

(* --- crash recovery of middleware state --- *)

let test_recovery_restores_pool_and_data () =
  let config =
    { Scheduler.default_config with snapshot_pool = true }
  in
  let m = travel_manager ~config () in
  let pair_a = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let pair_b = Manager.submit_string m (flight_program "Minnie" "Mickey") in
  let lonely = Manager.submit_string m (flight_program "Donald" "Daffy") in
  Manager.drain m;
  check_outcome m "a committed" "committed" pair_a;
  check_outcome m "b committed" "committed" pair_b;
  Alcotest.(check int) "lonely still dormant" 1
    (List.length (Scheduler.dormant (Manager.scheduler m)));
  (* crash! *)
  let m' = Manager.crash_and_recover m in
  ignore lonely;
  Alcotest.(check int) "bookings survive" 2
    (List.length
       (Manager.query m' "SELECT name FROM Reserve WHERE what = 'flight'"));
  (* Donald's transaction was re-submitted from the pool snapshot; when
     Daffy arrives in the recovered system, they coordinate. *)
  let daffy = Manager.submit_string m' (flight_program "Daffy" "Donald") in
  Manager.drain m';
  check_outcome m' "daffy commits in recovered system" "committed" daffy;
  Alcotest.(check int) "donald's booking exists now" 4
    (List.length (Manager.query m' "SELECT name FROM Reserve"))

(* --- integrity constraints (consistency, Assumption 3.1/3.5) --- *)

(* seats bookkeeping: Stock(item, left) must never go negative *)
let stock_manager = Gen.stock_manager

let take_seat_program =
  "BEGIN TRANSACTION;\n\
   UPDATE Stock SET left = left - 1 WHERE item = 'seat';\n\
   COMMIT;"

let test_constraint_blocks_overbooking () =
  let m = stock_manager () in
  let first = Manager.submit_string m take_seat_program in
  let second = Manager.submit_string m take_seat_program in
  Manager.drain m;
  check_outcome m "first gets the seat" "committed" first;
  (match Manager.outcome m second with
  | Some (Scheduler.Errored msg) ->
    Alcotest.(check bool) "names the constraint" true
      (String.length msg > 0
      && String.sub msg 0 10 = "constraint")
  | other -> Alcotest.failf "second should violate (got %s)" (outcome_name other));
  match Manager.query m "SELECT left FROM Stock" with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "stock must end at exactly zero"

let test_constraint_aborts_whole_group () =
  (* an entangled pair whose combined bookings overbook: group commit
     must refuse both, leaving the database consistent *)
  let m = stock_manager () in
  Manager.define_table m "Flights"
    [ ("fno", Schema.T_int); ("fdate", Schema.T_date); ("dest", Schema.T_str) ];
  Manager.load_row m "Flights" [ Int 122; date 2011 5 3; Str "LA" ];
  let grab me partner =
    Printf.sprintf
      "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;\n\
       SELECT '%s', fno AS @fno INTO ANSWER FlightRes\n\
       WHERE (fno) IN (SELECT fno FROM Flights WHERE dest='LA')\n\
       AND ('%s', fno) IN ANSWER FlightRes CHOOSE 1;\n\
       UPDATE Stock SET left = left - 1 WHERE item = 'seat';\n\
       COMMIT;"
      me partner
  in
  let mickey = Manager.submit_string m (grab "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (grab "Minnie" "Mickey") in
  Manager.drain m;
  (* one seat, two coordinated takers: the group violates and both fail *)
  (match Manager.outcome m mickey, Manager.outcome m minnie with
  | Some (Scheduler.Errored _), Some (Scheduler.Errored _) -> ()
  | a, b ->
    Alcotest.failf "expected both errored, got %s / %s" (outcome_name a)
      (outcome_name b));
  match Manager.query m "SELECT left FROM Stock" with
  | [ [| Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "the seat must still be there"

let test_invalid_oracle_breaks_consistency () =
  (* Definition 3.3 made operational: a VALID oracle answer preserves
     consistency (Assumption 3.5); an INVALID one books a flight that
     doesn't exist and trips the integrity constraint. *)
  let fresh () =
    let m = travel_manager () in
    Manager.add_constraint m "bookings-reference-flights" (fun catalog ->
        match Catalog.find catalog "Reserve", Catalog.find catalog "Flights" with
        | Some reserve, Some flights ->
          Table.fold
            (fun _ row ok ->
              ok
              && (Tuple.get row 1 <> Value.Str "flight"
                 || Table.lookup flights ~positions:[ 0 ] [ Tuple.get row 2 ] <> []))
            reserve true
        | _ -> true);
    m
  in
  let program = Program.of_string (flight_program "Mickey" "Minnie") in
  (* valid answer: flight 122 exists *)
  let m = fresh () in
  let valid_oracle =
    Oracle.scripted [ Some [ ("FlightRes", [ Value.Str "Mickey"; Value.Int 122; date 2011 5 3 ]) ] ]
  in
  (match Oracle.run_solo (Manager.engine m) program valid_oracle with
  | { outcome = Oracle.Solo_committed; valid = true; _ } -> ()
  | _ -> Alcotest.fail "valid oracle execution should commit");
  (* invalid answer: flight 999 does not exist -> inconsistent booking *)
  let m' = fresh () in
  let invalid_oracle =
    Oracle.scripted [ Some [ ("FlightRes", [ Value.Str "Mickey"; Value.Int 999; date 2011 5 3 ]) ] ]
  in
  match Oracle.run_solo (Manager.engine m') program invalid_oracle with
  | { outcome = Oracle.Solo_error _; valid = false; _ } -> ()
  | { valid; _ } ->
    Alcotest.failf "invalid oracle should break consistency (valid=%b)" valid

(* --- time-interval run trigger (§4: frequency as a time interval) --- *)

let test_interval_trigger () =
  let config =
    { Scheduler.default_config with trigger = Scheduler.Every_seconds 1.0 }
  in
  let m = travel_manager ~config () in
  let first =
    Manager.submit_string m
      "BEGIN TRANSACTION;\nINSERT INTO Reserve VALUES ('a', 'flight', 1);\nCOMMIT;"
  in
  (* no time has passed since the (virtual) last run: stays pooled *)
  Alcotest.(check string) "first waits" "pending"
    (outcome_name (Manager.outcome m first));
  Manager.advance_time m 2.0;
  let second =
    Manager.submit_string m
      "BEGIN TRANSACTION;\nINSERT INTO Reserve VALUES ('b', 'flight', 2);\nCOMMIT;"
  in
  (* the second arrival finds the interval expired and triggers a run
     covering both *)
  check_outcome m "first ran" "committed" first;
  check_outcome m "second ran" "committed" second

(* --- program round-trip --- *)

let test_program_serialization () =
  let p = Program.of_string ~label:"mickey" (travel_program "Mickey" "Minnie") in
  let p' = Program.of_serialized (Program.to_string p) in
  Alcotest.(check string) "label survives" "mickey" p'.label;
  Alcotest.(check int) "entangled count" 2 (Program.entangled_count p');
  Alcotest.(check string) "stable serialization"
    (Program.to_string p) (Program.to_string p')

(* Every constructor gives each statement a plan key: [make], [of_string]
   with and without a shape table, [of_serialized], and a copy that
   retags the isolation level. A made program and a shaped one of the
   same text, each run alone, commit the same Reserve rows. *)
let test_program_plan_keys () =
  let classical who =
    Printf.sprintf
      "BEGIN TRANSACTION;\n\
       SELECT fno AS @fno, fdate FROM Flights WHERE dest = 'LA' AND fno > 122 LIMIT 1;\n\
       INSERT INTO Reserve VALUES ('%s', 'flight', @fno);\n\
       UPDATE Reserve SET item = item + 100 WHERE name = '%s';\n\
       CREATE INDEX ON Reserve (name);\n\
       SELECT @hid FROM Hotels WHERE location = 'LA' AND hid <> 7;\n\
       INSERT INTO Reserve VALUES ('%s', 'hotel', @hid);\n\
       COMMIT;"
      who who who
  in
  let shapes = Ent_sql.Parser.Shapes.create () in
  ignore (Program.of_string ~shapes (classical "Goofy"));
  let made = Program.make (Ent_sql.Parser.parse_program (classical "Solo")) in
  let shaped = Program.of_string ~shapes (classical "Solo") in
  let programs =
    [ ("make", made);
      ("of_string", Program.of_string (travel_program "Mickey" "Minnie"));
      ("of_string ~shapes", shaped);
      ("of_serialized", Program.of_serialized (Program.to_string shaped));
      ("isolation copy", { shaped with isolation = Ent_txn.Engine.Snapshot }) ]
  in
  List.iter
    (fun (name, (p : Program.t)) ->
      Alcotest.(check int) (name ^ ": one key a statement") (Array.length p.stmts)
        (Array.length p.templates))
    programs;
  let commit (p : Program.t) =
    let m = travel_manager () in
    let id = Manager.submit m p in
    Manager.drain m;
    check_outcome m "committed" "committed" id;
    reserve_rows m
  in
  let rows = commit made in
  Alcotest.(check int) "made: two bookings" 2 (List.length rows);
  Alcotest.(check (list (triple string string string))) "same Reserve rows" rows (commit shaped)

(* --- properties --- *)

let prop_pairs_always_coordinate =
  (* any number of complete pairs submitted in any interleaving all
     commit, and every pair books one common flight *)
  let gen = QCheck2.Gen.(pair (int_range 1 6) (int_range 1 4)) in
  QCheck2.Test.make ~name:"complete pairs all commit" ~count:25 gen
    (fun (n_pairs, f) ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Every_arrivals (2 * f) }
      in
      let m = travel_manager ~config () in
      let ids =
        List.concat
          (List.init n_pairs (fun i ->
               let a = Printf.sprintf "u%da" i and b = Printf.sprintf "u%db" i in
               [ Manager.submit_string m (flight_program a b);
                 Manager.submit_string m (flight_program b a) ]))
      in
      Manager.drain m;
      List.for_all (fun id -> Manager.outcome m id = Some Scheduler.Committed) ids
      && List.length (reserve_rows m) = 2 * n_pairs)

let test_manual_trigger_and_misuse () =
  let config = { Scheduler.default_config with trigger = Scheduler.Manual } in
  let m = travel_manager ~config () in
  (* run_once on an empty pool is a no-op *)
  Manager.run_once m;
  Alcotest.(check int) "no runs on empty pool" 0 (Manager.stats m).runs;
  let id =
    Manager.submit_string m
      "BEGIN TRANSACTION;\nINSERT INTO Reserve VALUES ('m', 'flight', 1);\nCOMMIT;"
  in
  (* manual trigger: nothing ran at submission *)
  Alcotest.(check string) "pending until run_once" "pending"
    (outcome_name (Manager.outcome m id));
  Manager.run_once m;
  check_outcome m "committed after run_once" "committed" id;
  (try
     ignore (Manager.query m "INSERT INTO Reserve VALUES ('x', 'y', 1)");
     Alcotest.fail "query accepted a non-SELECT"
   with Invalid_argument _ -> ())

let prop_scheduler_conserves_tasks =
  (* Random mixes of paired, lonely, rolling-back and classical
     transactions: after drain, every task is accounted for (final
     outcome or dormant), the engine is quiescent, and all locks are
     released. *)
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 5) (int_range 0 3)
        (pair (int_range 0 3) (int_range 1 8)))
  in
  QCheck2.Test.make ~name:"drain accounts for every task" ~count:40 gen
    (fun (pairs, lonely, (rollbacks, f)) ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Every_arrivals f }
      in
      let m = travel_manager ~config () in
      let ids = ref [] in
      let submit p = ids := Manager.submit m p :: !ids in
      for k = 0 to pairs - 1 do
        let a = Printf.sprintf "p%da" k and b = Printf.sprintf "p%db" k in
        submit (Program.of_string (flight_program a b));
        submit (Program.of_string (flight_program b a))
      done;
      for k = 0 to lonely - 1 do
        submit
          (Program.of_string
             (flight_program (Printf.sprintf "lone%d" k) "nobody"))
      done;
      for _ = 0 to rollbacks - 1 do
        submit
          (Program.of_string
             "BEGIN TRANSACTION;\n\
              INSERT INTO Reserve VALUES ('r', 'flight', 1);\n\
              ROLLBACK;\nCOMMIT;")
      done;
      Manager.drain m;
      let dormant = Scheduler.dormant (Manager.scheduler m) in
      let accounted id =
        Manager.outcome m id <> None || List.mem id dormant
      in
      let no_active_txns =
        (* every lock owner must be gone: probe a few resources *)
        List.for_all
          (fun table ->
            Ent_txn.Lock.holders
              (Ent_txn.Engine.locks (Manager.engine m))
              (Ent_txn.Lock.Table table)
            = [])
          [ "Flights"; "Hotels"; "Reserve" ]
      in
      List.for_all accounted !ids
      && no_active_txns
      && List.length dormant = lonely)

let prop_paired_outcomes_deterministic =
  (* same submission sequence twice => identical outcomes and identical
     simulated time (the determinism assumption of §C.1) *)
  QCheck2.Test.make ~name:"executions are deterministic" ~count:20
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 6))
    (fun (pairs, f) ->
      let run () =
        let config =
          { Scheduler.default_config with trigger = Scheduler.Every_arrivals f }
        in
        let m = travel_manager ~config () in
        let ids = ref [] in
        for k = 0 to pairs - 1 do
          let a = Printf.sprintf "p%da" k and b = Printf.sprintf "p%db" k in
          ids := Manager.submit m (Program.of_string (flight_program a b)) :: !ids;
          ids := Manager.submit m (Program.of_string (flight_program b a)) :: !ids
        done;
        Manager.drain m;
        ( List.map (fun id -> outcome_name (Manager.outcome m id)) !ids,
          Manager.now m,
          reserve_rows m )
      in
      run () = run ())

(* [Group] against [Reference.Group], whose [members] folds the whole
   union-find table. Ids come from a small range so that joins often
   re-link tasks already in one group; lookups reach past it to ids
   never joined; [Reset] separates rounds. *)
type group_op =
  | Join of int list
  | Lookup of int * int
  | Reset

let group_op_gen =
  QCheck2.Gen.(
    frequency
      [ (4, map (fun ids -> Join ids) (list_size (int_range 0 4) (int_range 0 11)));
        (4, map2 (fun a b -> Lookup (a, b)) (int_range 0 15) (int_range 0 15));
        (1, return Reset) ])

let print_group_ops ops =
  String.concat "; "
    (List.map
       (function
         | Join ids ->
           "join [" ^ String.concat "," (List.map string_of_int ids) ^ "]"
         | Lookup (a, b) -> Printf.sprintf "lookup %d %d" a b
         | Reset -> "reset")
       ops)

let prop_group_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"group agrees with the fold reference"
    ~print:print_group_ops
    QCheck2.Gen.(list_size (int_range 1 40) group_op_gen)
    (fun ops ->
      let g = Group.create () and r = Reference.Group.create () in
      let agree a b =
        Group.members g a = Reference.Group.members r a
        && Group.same_group g a b = Reference.Group.same_group r a b
        && Group.entangled g a = Reference.Group.entangled r a
      in
      List.for_all
        (function
          | Join ids ->
            Group.join g ids;
            Reference.Group.join r ids;
            true
          | Lookup (a, b) -> agree a b && agree b a
          | Reset ->
            Group.reset g;
            Reference.Group.reset r;
            true)
        ops
      && List.for_all (fun a -> agree a ((a + 1) mod 16)) (List.init 16 Fun.id))

let () =
  Alcotest.run "core"
    [ ( "classical",
        [ Alcotest.test_case "commit" `Quick test_classical_transaction;
          Alcotest.test_case "rollback" `Quick test_classical_rollback;
          Alcotest.test_case "finished tasks retain no transaction" `Quick
            test_finished_tasks_retained_words ] );
      ( "entangled",
        [ Alcotest.test_case "mickey-minnie commit" `Quick test_mickey_minnie_commit;
          Alcotest.test_case "figure 2 multi-query" `Quick test_figure2_multi_query;
          Alcotest.test_case "timeout" `Quick test_donald_waits_and_times_out;
          Alcotest.test_case "late partner" `Quick test_donald_stays_dormant_without_timeout;
          Alcotest.test_case "figure 4 walkthrough" `Quick test_figure4_walkthrough;
          Alcotest.test_case "empty success" `Quick test_empty_success_proceeds;
          Alcotest.test_case "straggler re-reads a host value" `Quick
            test_straggler_rereads_host_value ] );
      ( "isolation",
        [ Alcotest.test_case "group commit prevents widow" `Quick test_group_commit_prevents_widow;
          Alcotest.test_case "relaxed level admits widow" `Quick test_no_group_commit_admits_widow ] );
      ( "oracle",
        [ Alcotest.test_case "valid execution" `Quick test_oracle_valid_execution;
          Alcotest.test_case "invalid answer flagged" `Quick test_oracle_invalid_answer_flagged;
          Alcotest.test_case "empty answer" `Quick test_oracle_empty_answer ] );
      ( "recovery",
        [ Alcotest.test_case "pool and data restored" `Quick test_recovery_restores_pool_and_data ] );
      ( "constraints",
        [ Alcotest.test_case "overbooking blocked" `Quick test_constraint_blocks_overbooking;
          Alcotest.test_case "group aborted together" `Quick test_constraint_aborts_whole_group;
          Alcotest.test_case "invalid oracle breaks consistency" `Quick
            test_invalid_oracle_breaks_consistency ] );
      ( "scheduling",
        [ Alcotest.test_case "interval trigger" `Quick test_interval_trigger;
          Alcotest.test_case "manual trigger + misuse" `Quick test_manual_trigger_and_misuse ] );
      ( "program",
        [ Alcotest.test_case "serialization" `Quick test_program_serialization;
          Alcotest.test_case "one plan key per statement" `Quick test_program_plan_keys ] );
      ( "properties",
        List.map Gen.to_alcotest
          [ prop_pairs_always_coordinate;
            prop_scheduler_conserves_tasks;
            prop_paired_outcomes_deterministic;
            prop_group_matches_reference ] ) ]

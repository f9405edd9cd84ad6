(* Tests for the transaction substrate: lock manager, engine (Strict
   2PL behaviour, savepoints, aborts), WAL and entanglement-aware
   recovery. *)

open Ent_storage
open Ent_txn

(* --- lock manager --- *)

let res_a = Lock.Table "A"
let res_row = Lock.Row ("A", 1)

let test_lock_shared_compatible () =
  let lm = Lock.create () in
  Alcotest.(check bool) "t1 S" true (Lock.request lm ~txn:1 res_a S = Granted);
  Alcotest.(check bool) "t2 S" true (Lock.request lm ~txn:2 res_a S = Granted);
  Alcotest.(check int) "two holders" 2 (List.length (Lock.holders lm res_a))

let test_lock_exclusive_conflicts () =
  let lm = Lock.create () in
  Alcotest.(check bool) "t1 X" true (Lock.request lm ~txn:1 res_a X = Granted);
  Alcotest.(check bool) "t2 S waits" true (Lock.request lm ~txn:2 res_a S = Waiting);
  Alcotest.(check (list int)) "t2 blocked by t1" [ 1 ] (Lock.blockers lm ~txn:2);
  let woken = Lock.release_all lm ~txn:1 in
  Alcotest.(check (list int)) "t2 woken" [ 2 ] woken;
  Alcotest.(check bool) "t2 now holds" true (Lock.held lm ~txn:2 res_a = Some S)

let test_lock_intention_modes () =
  let lm = Lock.create () in
  Alcotest.(check bool) "IS" true (Lock.request lm ~txn:1 res_a IS = Granted);
  Alcotest.(check bool) "IX compat IS" true (Lock.request lm ~txn:2 res_a IX = Granted);
  Alcotest.(check bool) "S conflicts IX" true (Lock.request lm ~txn:3 res_a S = Waiting);
  (* row locks under the intention locks *)
  Alcotest.(check bool) "row X" true (Lock.request lm ~txn:2 res_row X = Granted);
  Alcotest.(check bool) "row S waits" true (Lock.request lm ~txn:1 res_row S = Waiting)

let test_lock_upgrade () =
  let lm = Lock.create () in
  ignore (Lock.request lm ~txn:1 res_a S);
  Alcotest.(check bool) "upgrade S->X sole holder" true
    (Lock.request lm ~txn:1 res_a X = Granted);
  Alcotest.(check bool) "held X" true (Lock.held lm ~txn:1 res_a = Some X);
  let lm2 = Lock.create () in
  ignore (Lock.request lm2 ~txn:1 res_a S);
  ignore (Lock.request lm2 ~txn:2 res_a S);
  Alcotest.(check bool) "upgrade with reader waits" true
    (Lock.request lm2 ~txn:1 res_a X = Waiting)

let test_lock_covered_rerequest () =
  let lm = Lock.create () in
  ignore (Lock.request lm ~txn:1 res_a X);
  Alcotest.(check bool) "X covers S" true (Lock.request lm ~txn:1 res_a S = Granted);
  Alcotest.(check bool) "X covers IX" true (Lock.request lm ~txn:1 res_a IX = Granted)

let test_lock_fifo () =
  let lm = Lock.create () in
  ignore (Lock.request lm ~txn:1 res_a X);
  ignore (Lock.request lm ~txn:2 res_a X);
  ignore (Lock.request lm ~txn:3 res_a S);
  let woken = Lock.release_all lm ~txn:1 in
  (* FIFO: t2 gets X; t3 keeps waiting behind it. *)
  Alcotest.(check (list int)) "only t2" [ 2 ] woken;
  Alcotest.(check bool) "t3 still waiting" true (Lock.is_waiting lm ~txn:3);
  let woken2 = Lock.release_all lm ~txn:2 in
  Alcotest.(check (list int)) "now t3" [ 3 ] woken2

let test_lock_deadlock_detection () =
  let lm = Lock.create () in
  let res_b = Lock.Table "B" in
  ignore (Lock.request lm ~txn:1 res_a X);
  ignore (Lock.request lm ~txn:2 res_b X);
  Alcotest.(check bool) "t1 wants B" true (Lock.request lm ~txn:1 res_b X = Waiting);
  Alcotest.(check bool) "no cycle yet" true (Lock.deadlock_cycle lm ~txn:1 = None);
  Alcotest.(check bool) "t2 wants A" true (Lock.request lm ~txn:2 res_a X = Waiting);
  (match Lock.deadlock_cycle lm ~txn:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "cycle not detected");
  (* Abort t2: t1 should get B. *)
  let woken = Lock.release_all lm ~txn:2 in
  Alcotest.(check (list int)) "t1 woken" [ 1 ] woken

(* The cycle 2 -> 3 -> 2 closes on an earlier-waiter edge: t3's S on A
   clashes with t2's X queued ahead of it, not with t1's S holder. *)
let test_lock_queue_order_deadlock () =
  let lm = Lock.create () in
  let res_b = Lock.Table "B" in
  ignore (Lock.request lm ~txn:1 res_a S);
  Alcotest.(check bool) "t2 X on A queues" true (Lock.request lm ~txn:2 res_a X = Waiting);
  ignore (Lock.request lm ~txn:3 res_b X);
  Alcotest.(check bool) "t3 S on A queues" true (Lock.request lm ~txn:3 res_a S = Waiting);
  Alcotest.(check (list int)) "t3 waits for t2" [ 2 ] (Lock.blockers lm ~txn:3);
  Alcotest.(check bool) "no cycle yet" true (Lock.deadlock_cycle lm ~txn:3 = None);
  Alcotest.(check bool) "t2 X on B queues" true (Lock.request lm ~txn:2 res_b X = Waiting);
  Alcotest.(check (option (list int))) "cycle" (Some [ 2; 3 ])
    (Lock.deadlock_cycle lm ~txn:2)

(* As above, but t2 and t3 share a group, so t3's X on B does not block
   t2; t2 queues on B only behind t4's compatible IS. No cycle. *)
let test_lock_group_cuts_holder_edge () =
  let lm = Lock.create () in
  let res_b = Lock.Table "B" in
  Lock.set_group lm ~txn:2 ~group:1;
  Lock.set_group lm ~txn:3 ~group:1;
  ignore (Lock.request lm ~txn:1 res_a S);
  ignore (Lock.request lm ~txn:2 res_a X);
  ignore (Lock.request lm ~txn:3 res_b X);
  ignore (Lock.request lm ~txn:3 res_a S);
  Alcotest.(check bool) "t4 IS on B queues" true (Lock.request lm ~txn:4 res_b IS = Waiting);
  Alcotest.(check bool) "t2 S on B queues" true (Lock.request lm ~txn:2 res_b S = Waiting);
  Alcotest.(check (list int)) "t2 waits for t1 only" [ 1 ] (Lock.blockers lm ~txn:2);
  Alcotest.(check (option (list int))) "no cycle" None (Lock.deadlock_cycle lm ~txn:2)

let test_lock_waiter_removed_on_release () =
  let lm = Lock.create () in
  ignore (Lock.request lm ~txn:1 res_a X);
  ignore (Lock.request lm ~txn:2 res_a S);
  ignore (Lock.release_all lm ~txn:2);
  Alcotest.(check bool) "t2 dequeued" false (Lock.is_waiting lm ~txn:2);
  ignore (Lock.release_all lm ~txn:1);
  Alcotest.(check int) "no holders" 0 (List.length (Lock.holders lm res_a))

(* --- lock keys --- *)

(* Row 0 of a table is a different resource from the table itself:
   an X on row 0 beside other txns' IX on the table is granted, as it
   is for an insert into an empty table while others write it. *)
let test_lock_row_zero_not_table () =
  let lm = Lock.create () in
  let t = Lock.Table "Fresh" and row0 = Lock.Row ("Fresh", 0) in
  Alcotest.(check bool) "t1 IX" true (Lock.request lm ~txn:1 t IX = Granted);
  Alcotest.(check bool) "t2 IX" true (Lock.request lm ~txn:2 t IX = Granted);
  Alcotest.(check bool) "t3 IX" true (Lock.request lm ~txn:3 t IX = Granted);
  Alcotest.(check bool) "t3 X on row 0 granted" true
    (Lock.request lm ~txn:3 row0 X = Granted);
  Alcotest.(check (list (pair int string))) "table holders"
    [ (1, "IX"); (2, "IX"); (3, "IX") ]
    (List.map (fun (o, m) -> (o, Lock.mode_to_string m)) (Lock.holders lm t));
  Alcotest.(check bool) "row 0 held X" true (Lock.held lm ~txn:3 row0 = Some X);
  Alcotest.(check bool) "table not held X" true (Lock.held lm ~txn:3 t = Some IX)

let test_lock_key_out_of_range () =
  let lm = Lock.create () in
  let raises lm what r =
    match Lock.key lm r with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises lm "row -1" (Lock.Row ("A", -1));
  raises lm "row min_int" (Lock.Row ("A", min_int));
  raises lm "row max_row + 1" (Lock.Row ("A", Lock.max_row + 1));
  raises lm "row max_int" (Lock.Row ("A", max_int));
  (match Lock.request lm ~txn:1 (Lock.Row ("A", -1)) X with
  | _ -> Alcotest.fail "request on row -1: no Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "max_row fits" true
    (Lock.request lm ~txn:1 (Lock.Row ("A", Lock.max_row)) X = Granted);
  Alcotest.(check bool) "row 0 distinct from max_row" true
    (Lock.request lm ~txn:2 (Lock.Row ("A", 0)) X = Granted);
  (* names: [max_names] fit, one more does not *)
  let lm = Lock.create () in
  for i = 0 to Lock.max_names - 1 do
    ignore (Lock.key lm (Lock.Table (string_of_int i)))
  done;
  raises lm "a name past max_names" (Lock.Table "one too many");
  raises lm "a row of it" (Lock.Row ("one too many", 0));
  Alcotest.(check bool) "known names still lock" true
    (Lock.request lm ~txn:1 (Lock.Table "7") X = Granted)

(* --- engine helpers --- *)

let base_schema =
  Schema.make [ { Schema.name = "k"; ty = T_int }; { Schema.name = "v"; ty = T_str } ]

let make_engine ?(wal = true) () =
  let catalog = Catalog.create () in
  let engine = Engine.create ~wal catalog in
  ignore (Engine.create_table engine "T" base_schema);
  ignore (Engine.load engine "T" [| Value.Int 1; Value.Str "one" |]);
  ignore (Engine.load engine "T" [| Value.Int 2; Value.Str "two" |]);
  engine

let exec engine txn input =
  let access = Engine.access engine txn ~grounding:false () in
  Ent_sql.Eval.exec_stmt access (Ent_sql.Eval.fresh_env ())
    (Ent_sql.Parser.parse_stmt input)

let count_rows engine txn =
  match exec engine txn "SELECT k FROM T" with
  | Ent_sql.Eval.Rows rows -> List.length rows
  | _ -> Alcotest.fail "expected rows"

(* --- engine --- *)

let test_engine_commit_visible () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  Engine.commit engine t1;
  let t2 = Engine.begin_txn engine in
  Alcotest.(check int) "sees committed insert" 3 (count_rows engine t2);
  Engine.commit engine t2

let test_engine_abort_undoes () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  ignore (exec engine t1 "UPDATE T SET v = 'ONE' WHERE k = 1");
  ignore (exec engine t1 "DELETE FROM T WHERE k = 2");
  Engine.abort engine t1;
  let t2 = Engine.begin_txn engine in
  (match exec engine t2 "SELECT v FROM T WHERE k = 1" with
  | Ent_sql.Eval.Rows [ [| Value.Str "one" |] ] -> ()
  | _ -> Alcotest.fail "update not undone");
  Alcotest.(check int) "cardinality restored" 2 (count_rows engine t2);
  Engine.commit engine t2

let test_engine_write_blocks_reader () =
  let engine = make_engine () in
  let writer = Engine.begin_txn engine in
  ignore (exec engine writer "UPDATE T SET v = 'uno' WHERE k = 1");
  let reader = Engine.begin_txn engine in
  (try
     ignore (count_rows engine reader);
     Alcotest.fail "reader not blocked by writer's IX lock"
   with Engine.Blocked b -> Alcotest.(check int) "blocked txn" (Engine.id reader) b);
  Engine.commit engine writer;
  let woken = Engine.take_wakeups engine in
  Alcotest.(check (list int)) "reader woken" [ Engine.id reader ] woken;
  Alcotest.(check int) "reader proceeds" 2 (count_rows engine reader);
  Engine.commit engine reader

let test_engine_readers_share () =
  let engine = make_engine () in
  let r1 = Engine.begin_txn engine in
  let r2 = Engine.begin_txn engine in
  Alcotest.(check int) "r1 scans" 2 (count_rows engine r1);
  Alcotest.(check int) "r2 scans" 2 (count_rows engine r2);
  Engine.commit engine r1;
  Engine.commit engine r2

let test_engine_row_locking_allows_disjoint_writes () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  let t2 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (10, 'a')");
  ignore (exec engine t2 "INSERT INTO T VALUES (11, 'b')");
  Engine.commit engine t1;
  Engine.commit engine t2;
  let t3 = Engine.begin_txn engine in
  Alcotest.(check int) "both inserts landed" 4 (count_rows engine t3);
  Engine.commit engine t3

let test_engine_deadlock_victim () =
  let engine = make_engine () in
  ignore (Engine.create_table engine "U" base_schema);
  ignore (Engine.load engine "U" [| Value.Int 1; Value.Str "u" |]);
  let t1 = Engine.begin_txn engine in
  let t2 = Engine.begin_txn engine in
  ignore (exec engine t1 "UPDATE T SET v = 'x' WHERE k = 1");
  ignore (exec engine t2 "UPDATE U SET v = 'y' WHERE k = 1");
  (try
     (* t1's table-S scan of U conflicts with t2's IX on U *)
     ignore (exec engine t1 "SELECT k FROM U");
     Alcotest.fail "t1 should block on U"
   with Engine.Blocked _ -> ());
  (try
     (* t2's table-S scan of T closes the cycle *)
     ignore (exec engine t2 "SELECT k FROM T");
     Alcotest.fail "t2 should be a deadlock victim"
   with
  | Engine.Deadlock_victim v -> Alcotest.(check int) "victim is t2" (Engine.id t2) v
  | Engine.Blocked _ -> Alcotest.fail "deadlock undetected");
  Engine.abort engine t2;
  let woken = Engine.take_wakeups engine in
  Alcotest.(check (list int)) "t1 woken after victim abort" [ Engine.id t1 ] woken;
  (match exec engine t1 "SELECT k FROM U" with
  | Ent_sql.Eval.Rows rows -> Alcotest.(check int) "t1 proceeds" 1 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  Engine.commit engine t1

let test_engine_savepoint_rollback () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  let sp = Engine.savepoint t1 in
  ignore (exec engine t1 "INSERT INTO T VALUES (4, 'four')");
  ignore (exec engine t1 "UPDATE T SET v = 'THREE' WHERE k = 3");
  Engine.rollback_to engine t1 sp;
  (match exec engine t1 "SELECT v FROM T WHERE k = 3" with
  | Ent_sql.Eval.Rows [ [| Value.Str "three" |] ] -> ()
  | _ -> Alcotest.fail "partial rollback wrong");
  Alcotest.(check int) "row 4 gone" 3 (count_rows engine t1);
  Engine.commit engine t1

let test_engine_grounding_read_lock () =
  (* §3.3.3 / Figure 3(b): a grounding read must hold a table-level S
     lock so Donald's INSERT blocks until commit. *)
  let engine = make_engine () in
  let minnie = Engine.begin_txn engine in
  let access = Engine.access engine minnie ~grounding:true () in
  ignore
    (Ent_sql.Eval.select_rows access (Ent_sql.Eval.fresh_env ())
       (match Ent_sql.Parser.parse_stmt "SELECT k FROM T WHERE k = 1" with
       | Ent_sql.Ast.Select s -> s
       | _ -> assert false));
  Alcotest.(check (list string)) "grounding recorded" [ "T" ]
    (Engine.grounding_reads minnie);
  let donald = Engine.begin_txn engine in
  (try
     ignore (exec engine donald "INSERT INTO T VALUES (99, 'new')");
     Alcotest.fail "insert should block on grounding lock"
   with Engine.Blocked _ -> ());
  Engine.commit engine minnie;
  ignore (Engine.take_wakeups engine);
  ignore (exec engine donald "INSERT INTO T VALUES (99, 'new')");
  Engine.commit engine donald

let test_engine_unlocked_reads_relaxed () =
  (* With lock_reads:false (relaxed isolation), the reader does not
     block — this is the knob that re-admits quasi-read anomalies. *)
  let engine = make_engine () in
  let writer = Engine.begin_txn engine in
  ignore (exec engine writer "UPDATE T SET v = 'uno' WHERE k = 1");
  let reader = Engine.begin_txn engine in
  let access = Engine.access engine reader ~grounding:false ~lock_reads:false () in
  let rows =
    Ent_sql.Eval.select_rows access (Ent_sql.Eval.fresh_env ())
      (match Ent_sql.Parser.parse_stmt "SELECT v FROM T WHERE k = 1" with
      | Ent_sql.Ast.Select s -> s
      | _ -> assert false)
  in
  (* dirty read of the uncommitted value *)
  (match rows with
  | [ [| Value.Str "uno" |] ] -> ()
  | _ -> Alcotest.fail "expected dirty read at relaxed level");
  Engine.abort engine writer;
  Engine.commit engine reader

(* --- recovery --- *)

let test_recovery_replay_committed () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  Engine.commit engine t1;
  let t2 = Engine.begin_txn engine in
  ignore (exec engine t2 "INSERT INTO T VALUES (4, 'four')");
  Engine.abort engine t2;
  let t3 = Engine.begin_txn engine in
  ignore (exec engine t3 "UPDATE T SET v = 'TWO' WHERE k = 2");
  (* t3 incomplete at crash *)
  let wal = Option.get (Engine.log engine) in
  let catalog, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list int)) "committed" [ 0; Engine.id t1 ] analysis.committed;
  Alcotest.(check (list int)) "aborted" [ Engine.id t2 ] analysis.aborted;
  Alcotest.(check (list int)) "incomplete" [ Engine.id t3 ] analysis.incomplete;
  let table = Catalog.find_exn catalog "T" in
  Alcotest.(check int) "rows after recovery" 3 (Table.cardinal table);
  (* t3's update must not survive *)
  let row2 =
    List.find (fun (_, r) -> Value.equal (Tuple.get r 0) (Int 2)) (Table.to_list table)
  in
  Alcotest.(check string) "t3 update lost" "two" (Value.to_string (Tuple.get (snd row2) 1))

let test_recovery_entangled_group_rollback () =
  (* Two transactions entangle; only one commits before the crash. The
     committed one must be rolled back during recovery (§4). *)
  let engine = make_engine () in
  let mickey = Engine.begin_txn engine in
  let minnie = Engine.begin_txn engine in
  Engine.log_entangle_group engine ~event:1 ~members:(List.map Engine.id [ mickey; minnie ]);
  ignore (exec engine mickey "INSERT INTO T VALUES (100, 'mickey-booking')");
  ignore (exec engine minnie "INSERT INTO T VALUES (200, 'minnie-booking')");
  Engine.commit engine mickey;
  (* crash before minnie commits *)
  let wal = Option.get (Engine.log engine) in
  let catalog, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list int)) "victims" [ Engine.id mickey ] analysis.group_victims;
  Alcotest.(check bool) "mickey not survivor" false
    (List.mem (Engine.id mickey) analysis.survivors);
  let table = Catalog.find_exn catalog "T" in
  Alcotest.(check int) "neither booking survives" 2 (Table.cardinal table)

let test_recovery_entangled_group_both_commit () =
  let engine = make_engine () in
  let mickey = Engine.begin_txn engine in
  let minnie = Engine.begin_txn engine in
  Engine.log_entangle_group engine ~event:1 ~members:(List.map Engine.id [ mickey; minnie ]);
  ignore (exec engine mickey "INSERT INTO T VALUES (100, 'm')");
  ignore (exec engine minnie "INSERT INTO T VALUES (200, 'n')");
  Engine.commit engine mickey;
  Engine.commit engine minnie;
  let wal = Option.get (Engine.log engine) in
  let catalog, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list int)) "no victims" [] analysis.group_victims;
  Alcotest.(check int) "both survive" 4 (Table.cardinal (Catalog.find_exn catalog "T"))

let test_recovery_transitive_groups () =
  (* a~b in event 1, b~c in event 2: all three form one group; if c
     does not commit, a and b are rolled back too. *)
  let engine = make_engine () in
  let a = Engine.begin_txn engine in
  let b = Engine.begin_txn engine in
  let c = Engine.begin_txn engine in
  Engine.log_entangle_group engine ~event:1 ~members:(List.map Engine.id [ a; b ]);
  Engine.log_entangle_group engine ~event:2 ~members:(List.map Engine.id [ b; c ]);
  ignore (exec engine a "INSERT INTO T VALUES (100, 'a')");
  ignore (exec engine b "INSERT INTO T VALUES (200, 'b')");
  ignore (exec engine c "INSERT INTO T VALUES (300, 'c')");
  Engine.commit engine a;
  Engine.commit engine b;
  (* crash before c *)
  let wal = Option.get (Engine.log engine) in
  let _, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list (list int))) "one group of three"
    [ List.map Engine.id [ a; b; c ] ] analysis.groups;
  Alcotest.(check (list int)) "a and b rolled back" (List.map Engine.id [ a; b ])
    analysis.group_victims

let test_recovery_cascading_victims () =
  (* t_after updates a row inserted by a group victim; it must be rolled
     back as well even though it committed and is in no group. *)
  let engine = make_engine ~wal:true () in
  let victim = Engine.begin_txn engine in
  let partner = Engine.begin_txn engine in
  Engine.log_entangle_group engine ~event:1 ~members:(List.map Engine.id [ victim; partner ]);
  ignore (exec engine victim "INSERT INTO T VALUES (100, 'v')");
  Engine.commit engine victim;
  let after = Engine.begin_txn engine in
  ignore (exec engine after "UPDATE T SET v = 'overwritten' WHERE k = 100");
  Engine.commit engine after;
  (* crash: partner never commits *)
  let wal = Option.get (Engine.log engine) in
  let catalog, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list int)) "cascade" (List.map Engine.id [ victim; after ])
    analysis.group_victims;
  Alcotest.(check int) "row gone entirely" 2
    (Table.cardinal (Catalog.find_exn catalog "T"))

let test_recovery_pool_snapshot () =
  let engine = make_engine () in
  Engine.log_pool_snapshot engine [ "program-1"; "program-2" ];
  Engine.log_pool_snapshot engine [ "program-2" ];
  let wal = Option.get (Engine.log engine) in
  let analysis = Recovery.analyze (Wal.records wal) in
  Alcotest.(check (list string)) "latest snapshot wins" [ "program-2" ] analysis.pool

let test_recovery_statement_rollback_compensated () =
  (* A statement-level rollback inside a committed transaction must be
     invisible after recovery (compensation records). *)
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  let sp = Engine.savepoint t1 in
  ignore (exec engine t1 "INSERT INTO T VALUES (4, 'four')");
  Engine.rollback_to engine t1 sp;
  Engine.commit engine t1;
  let wal = Option.get (Engine.log engine) in
  let catalog, _ = Recovery.replay (Wal.records wal) in
  Alcotest.(check int) "3 rows (no row 4)" 3
    (Table.cardinal (Catalog.find_exn catalog "T"))

let test_checkpoint_and_compact () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "INSERT INTO T VALUES (3, 'three')");
  (* sharp checkpoints are illegal while t1 is active *)
  (try
     Engine.checkpoint engine;
     Alcotest.fail "checkpoint with active txn accepted"
   with Invalid_argument _ -> ());
  Engine.commit engine t1;
  Engine.checkpoint engine;
  let wal = Option.get (Engine.log engine) in
  Wal.compact wal;
  Alcotest.(check int) "log reduced to the checkpoint" 1 (Wal.length wal);
  (* post-checkpoint work recovers on top of the snapshot *)
  let t2 = Engine.begin_txn engine in
  ignore (exec engine t2 "UPDATE T SET v = 'TWO' WHERE k = 2");
  ignore (exec engine t2 "DELETE FROM T WHERE k = 1");
  Engine.commit engine t2;
  let t3 = Engine.begin_txn engine in
  ignore (exec engine t3 "INSERT INTO T VALUES (4, 'four')");
  (* t3 incomplete at crash *)
  let catalog, _ = Recovery.replay (Wal.records wal) in
  let table = Catalog.find_exn catalog "T" in
  Alcotest.(check int) "rows after recovery" 2 (Table.cardinal table);
  let values =
    List.sort String.compare
      (List.map (fun (_, r) -> Value.to_string (Tuple.get r 1)) (Table.to_list table))
  in
  Alcotest.(check (list string)) "surviving values" [ "TWO"; "three" ] values

let test_checkpoint_preserves_groups_after () =
  (* the entanglement-aware rule still applies to post-checkpoint work *)
  let engine = make_engine () in
  Engine.checkpoint engine;
  let a = Engine.begin_txn engine in
  let b = Engine.begin_txn engine in
  Engine.log_entangle_group engine ~event:9 ~members:(List.map Engine.id [ a; b ]);
  ignore (exec engine a "INSERT INTO T VALUES (100, 'a')");
  Engine.commit engine a;
  (* crash before b *)
  let wal = Option.get (Engine.log engine) in
  let catalog, analysis = Recovery.replay (Wal.records wal) in
  Alcotest.(check (list int)) "a rolled back" [ Engine.id a ] analysis.group_victims;
  Alcotest.(check int) "snapshot rows only" 2
    (Table.cardinal (Catalog.find_exn catalog "T"))

let test_recovery_idempotent () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  ignore (exec engine t1 "UPDATE T SET v = 'uno' WHERE k = 1");
  Engine.commit engine t1;
  let wal = Option.get (Engine.log engine) in
  let records = Wal.records wal in
  let cat1, _ = Recovery.replay records in
  let cat2, _ = Recovery.replay records in
  let dump cat =
    List.map
      (fun (id, r) -> (id, List.map Value.to_string (Tuple.to_list r)))
      (Table.to_list (Catalog.find_exn cat "T"))
  in
  Alcotest.(check bool) "same result twice" true (dump cat1 = dump cat2)

let test_recovery_empty_log () =
  let catalog, analysis = Recovery.replay [] in
  Alcotest.(check (list string)) "no tables" [] (Catalog.table_names catalog);
  Alcotest.(check (list int)) "bootstrap only" [ 0 ] analysis.committed;
  Alcotest.(check (list string)) "no pool" [] analysis.pool

let test_compact_without_checkpoint () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Commit 1));
  Wal.compact wal;
  Alcotest.(check int) "untouched" 2 (Wal.length wal)

let test_program_transactional_roundtrip () =
  let open Ent_core in
  let p =
    Program.of_string ~label:"q" ~transactional:false
      "BEGIN TRANSACTION;\nINSERT INTO T VALUES (1, 'x');\nCOMMIT;"
  in
  let p' = Program.of_serialized (Program.to_string p) in
  Alcotest.(check bool) "flag survives" false p'.transactional;
  Alcotest.(check string) "label survives" "q" p'.label

let test_engine_api_misuse () =
  let engine = make_engine () in
  let t1 = Engine.begin_txn engine in
  let kept = Engine.access engine t1 ~grounding:false () in
  Engine.commit engine t1;
  (* operations on a finished transaction's handle are rejected *)
  (try
     Engine.commit engine t1;
     Alcotest.fail "double commit accepted"
   with Invalid_argument _ -> ());
  (try
     Engine.abort engine t1;
     Alcotest.fail "abort after commit accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Engine.savepoint t1);
     Alcotest.fail "savepoint on finished txn accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Engine.access engine t1 ~grounding:false ());
     Alcotest.fail "access on finished txn accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (kept.insert "T" [| Value.Int 9; Value.Str "late" |]);
     Alcotest.fail "write through a finished txn's access accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "not live" false (Engine.is_live t1);
  (* abort_group skips finished members instead of failing *)
  let t2 = Engine.begin_txn engine in
  Engine.abort_group engine [ t1; t2 ];
  Alcotest.(check bool) "t2 aborted" false (Engine.is_live t2)

let test_group_abort_interleaved_writes () =
  (* Two group members interleave writes on the same row (group lock
     sharing permits it); aborting the group must restore the original
     value regardless of member order. *)
  let engine = make_engine () in
  let a = Engine.begin_txn engine in
  let b = Engine.begin_txn engine in
  Engine.set_lock_group engine ~txn:(Engine.id a) ~group:1;
  Engine.set_lock_group engine ~txn:(Engine.id b) ~group:1;
  ignore (exec engine a "UPDATE T SET v = 'a1' WHERE k = 1");
  ignore (exec engine b "UPDATE T SET v = 'b1' WHERE k = 1");
  ignore (exec engine a "UPDATE T SET v = 'a2' WHERE k = 1");
  Engine.abort_group engine [ a; b ];
  let t3 = Engine.begin_txn engine in
  (match exec engine t3 "SELECT v FROM T WHERE k = 1" with
  | Ent_sql.Eval.Rows [ [| Value.Str "one" |] ] -> ()
  | Ent_sql.Eval.Rows [ [| v |] ] ->
    Alcotest.failf "wrong restored value %s" (Value.to_string v)
  | _ -> Alcotest.fail "row missing");
  Engine.commit engine t3

(* A finished transaction leaves nothing behind in the engine: after
   committed and aborted insert cycles, with the table emptied, the
   engine retains at most a few words per transaction. *)
let test_engine_finished_txns_released () =
  let engine = make_engine ~wal:false () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let cycles = 10_000 in
  let before = live_words () in
  for i = 1 to 2 * cycles do
    let txn = Engine.begin_txn engine in
    let access = Engine.access engine txn ~grounding:false () in
    ignore (access.insert "T" [| Value.Int (i + 2); Value.Str "x" |]);
    if i <= cycles then Engine.commit engine txn else Engine.abort engine txn
  done;
  Table.clear (Catalog.find_exn (Engine.catalog engine) "T");
  let per_txn =
    float_of_int (live_words () - before) /. float_of_int (2 * cycles)
  in
  ignore (Sys.opaque_identity engine);
  if per_txn > 4.0 then
    Alcotest.failf "%.1f live words retained per finished transaction" per_txn

(* --- properties --- *)

let prop_lock_no_incompatible_holders =
  (* Run random request/release traffic; after every step no two
     holders of a resource may be incompatible. *)
  let op_gen =
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (triple (int_range 1 5) (int_range 0 2) (int_range 0 3)))
  in
  QCheck2.Test.make ~name:"no incompatible lock holders" ~count:200 op_gen
    (fun ops ->
      let lm = Lock.create () in
      let resources = [| res_a; Lock.Table "B"; Lock.Row ("A", 7) |] in
      let modes = [| Lock.IS; Lock.IX; Lock.S; Lock.X |] in
      let compatible a b =
        match a, b with
        | Lock.IS, Lock.IS | Lock.IS, Lock.IX | Lock.IX, Lock.IS
        | Lock.IX, Lock.IX | Lock.IS, Lock.S | Lock.S, Lock.IS
        | Lock.S, Lock.S -> true
        | _ -> false
      in
      List.for_all
        (fun (txn, r, m) ->
          (if m = 3 && txn mod 2 = 0 then ignore (Lock.release_all lm ~txn)
           else ignore (Lock.request lm ~txn (resources.(r)) modes.(m)));
          Array.for_all
            (fun res ->
              let hs = Lock.holders lm res in
              List.for_all
                (fun (o1, m1) ->
                  List.for_all
                    (fun (o2, m2) -> o1 = o2 || compatible m1 m2)
                    hs)
                hs)
            resources)
        ops)

let prop_recovery_idempotent =
  (* Random committed/aborted transactions doing random writes: replay
     must equal replay-of-replay. *)
  let txn_gen =
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (pair bool (list_size (int_range 1 5) (int_range 0 9))))
  in
  QCheck2.Test.make ~name:"recovery idempotent under random traffic"
    ~count:100 txn_gen
    (fun txns ->
      let catalog = Catalog.create () in
      let engine = Engine.create ~wal:true catalog in
      ignore (Engine.create_table engine "T" base_schema);
      for k = 0 to 9 do
        ignore
          (Engine.load engine "T" [| Value.Int k; Value.Str (string_of_int k) |])
      done;
      List.iter
        (fun (commit, keys) ->
          let txn = Engine.begin_txn engine in
          (try
             List.iter
               (fun k ->
                 ignore
                   (exec engine txn
                      (Printf.sprintf "UPDATE T SET v = 'x%d' WHERE k = %d"
                         (Engine.id txn) k)))
               keys
           with Engine.Blocked _ | Engine.Deadlock_victim _ ->
             Engine.abort engine txn);
          if Engine.is_live txn then
            if commit then Engine.commit engine txn else Engine.abort engine txn)
        txns;
      let wal = Option.get (Engine.log engine) in
      let records = Wal.records wal in
      let cat1, _ = Recovery.replay records in
      let dump cat =
        List.map
          (fun (id, r) -> (id, List.map Value.to_string (Tuple.to_list r)))
          (Table.to_list (Catalog.find_exn cat "T"))
      in
      (* recovered state matches the live state *)
      dump cat1 = dump catalog)

(* The lock manager's waits-for queries against [Reference.Locks],
   which recomputes them from a full [Lock.dump]. Random requests,
   upgrades, releases and group tags; after every step every txn's
   [blockers], [is_waiting], [waits] and deadlock verdict must match,
   and any cycle returned must be a cycle of the reference graph. Two
   shapes: 6 txns over 4 resources, and 10 txns over 2 resources, where
   mixed-mode queues of 5 and more waiters form. *)
type lock_op =
  | Request of int * int * Lock.mode
  | Upgrade of int * int
  | Release of int
  | Group of int * int

let lock_op_to_string = function
  | Request (txn, r, m) ->
    Printf.sprintf "request t%d r%d %s" txn r (Lock.mode_to_string m)
  | Upgrade (txn, r) -> Printf.sprintf "upgrade t%d r%d" txn r
  | Release txn -> Printf.sprintf "release t%d" txn
  | Group (txn, g) -> Printf.sprintf "group t%d g%d" txn g

let lock_ops ~txns ~max_ops resources =
  let lock_op =
    QCheck2.Gen.(
      let txn = int_range 1 txns
      and res = int_range 0 (Array.length resources - 1) in
      frequency
        [ ( 6,
            map3
              (fun txn r m -> Request (txn, r, m))
              txn res
              (oneofl [ Lock.IS; Lock.IX; Lock.S; Lock.X ]) );
          (2, map2 (fun txn r -> Upgrade (txn, r)) txn res);
          (2, map (fun txn -> Release txn) txn);
          (1, map2 (fun txn g -> Group (txn, g)) txn (int_range 1 2)) ])
  in
  QCheck2.Gen.(list_size (int_range 1 max_ops) lock_op)

(* The request an [Upgrade] makes: strengthen whatever [txn] holds in
   [lm], preferring resource [r]. *)
let upgrade_request lm ~txn resources r =
  let held =
    List.filter
      (fun r -> Lock.held lm ~txn r <> None)
      (resources.(r) :: Array.to_list resources)
  in
  match held with
  | res :: _ -> (res, Lock.X)
  | [] -> (resources.(r), Lock.S)

let lock_waits_for_differential ~name ~count ~txns ~max_ops resources =
  QCheck2.Test.make ~name ~count
    ~print:QCheck2.Print.(list lock_op_to_string)
    (lock_ops ~txns ~max_ops resources)
    (fun ops ->
      let lm = Lock.create () in
      let groups = Hashtbl.create 8 in
      let group txn = Hashtbl.find_opt groups txn in
      List.iteri
        (fun step op ->
          (match op with
          | Request (txn, r, m) -> ignore (Lock.request lm ~txn resources.(r) m)
          | Upgrade (txn, r) ->
            let res, m = upgrade_request lm ~txn resources r in
            ignore (Lock.request lm ~txn res m)
          | Release txn ->
            ignore (Lock.release_all lm ~txn);
            Hashtbl.remove groups txn
          | Group (txn, g) ->
            Lock.set_group lm ~txn ~group:g;
            Hashtbl.replace groups txn g);
          let dump = Lock.dump lm in
          for txn = 1 to txns do
            let fail what =
              QCheck2.Test.fail_reportf "step %d (%s): t%d %s" step
                (lock_op_to_string op) txn what
            in
            if Lock.blockers lm ~txn <> Reference.Locks.blockers dump ~group ~txn
            then fail "blockers differ";
            if Lock.is_waiting lm ~txn <> Reference.Locks.is_waiting dump ~txn
            then fail "is_waiting differs";
            if Lock.waits lm ~txn <> Reference.Locks.waits dump ~txn then
              fail "waits differ";
            match Lock.deadlock_cycle lm ~txn with
            | Some cycle ->
              if not (Reference.Locks.is_cycle dump ~group ~txn cycle) then
                fail "returned a cycle the reference graph lacks"
            | None ->
              if Reference.Locks.on_cycle dump ~group ~txn then
                fail "missed a cycle"
          done)
        ops;
      true)

let prop_lock_waits_for_differential =
  lock_waits_for_differential
    ~name:"waits-for queries match a whole-table reference" ~count:300
    ~txns:6 ~max_ops:60
    [| res_a; Lock.Table "B"; Lock.Row ("A", 7); Lock.Row ("B", 2) |]

let prop_lock_waits_for_long_queues =
  lock_waits_for_differential
    ~name:"long queues: waits-for queries match the reference" ~count:300
    ~txns:10 ~max_ops:120
    [| res_a; Lock.Table "B" |]

(* The lock manager against [Reference.Locks.Model], the list-based
   manager it replaced, over the same random traffic: every request
   outcome, every woken list, [held] for every txn and resource, and
   the whole [dump] must agree after every step. *)
let lock_model_differential ~name ~count ~txns ~max_ops resources =
  let module Model = Reference.Locks.Model in
  QCheck2.Test.make ~name ~count
    ~print:QCheck2.Print.(list lock_op_to_string)
    (lock_ops ~txns ~max_ops resources)
    (fun ops ->
      let lm = Lock.create () and model = Model.create () in
      List.iteri
        (fun step op ->
          let fail what =
            QCheck2.Test.fail_reportf "step %d (%s): %s" step
              (lock_op_to_string op) what
          in
          let request txn res m =
            if Lock.request lm ~txn res m <> Model.request model ~txn res m then
              fail "request outcome differs"
          in
          (match op with
          | Request (txn, r, m) -> request txn resources.(r) m
          | Upgrade (txn, r) ->
            let res, m = upgrade_request lm ~txn resources r in
            request txn res m
          | Release txn ->
            if Lock.release_all lm ~txn <> Model.release_all model ~txn then
              fail "woken lists differ"
          | Group (txn, g) ->
            Lock.set_group lm ~txn ~group:g;
            Model.set_group model ~txn ~group:g);
          for txn = 1 to txns do
            Array.iter
              (fun res ->
                if Lock.held lm ~txn res <> Model.held model ~txn res then
                  fail (Printf.sprintf "held differs for t%d" txn))
              resources
          done;
          let sorted_holders =
            List.map (fun (r, hs, q) -> (r, List.sort compare hs, q))
          in
          if sorted_holders (Lock.dump lm) <> Model.dump model then
            fail "dump differs")
        ops;
      true)

let prop_lock_model_differential =
  lock_model_differential
    ~name:"lock manager matches the list-based model" ~count:300 ~txns:6
    ~max_ops:60
    [| res_a; Lock.Table "B"; Lock.Row ("A", 7); Lock.Row ("B", 2) |]

let prop_lock_model_long_queues =
  lock_model_differential
    ~name:"long queues: lock manager matches the list-based model" ~count:300
    ~txns:10 ~max_ops:120
    [| res_a; Lock.Table "B" |]

(* An IS request and release next to k other IS holders of the same
   table must allocate the same whatever k is: neither walks nor copies
   the holders. Steady state (the first cycle is a warm-up), averaged
   over 100 cycles. *)
let test_lock_cost_flat_in_holders () =
  let words_per_cycle k =
    let lm = Lock.create () in
    let table = Lock.Table "T" in
    for txn = 1 to k do
      ignore (Lock.request lm ~txn table Lock.IS)
    done;
    let cycle () =
      ignore (Lock.request lm ~txn:0 table Lock.IS);
      ignore (Lock.release_all lm ~txn:0)
    in
    cycle ();
    let cycles = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to cycles do
      cycle ()
    done;
    (Gc.minor_words () -. before) /. float_of_int cycles
  in
  let few = words_per_cycle 10 and many = words_per_cycle 1_000 in
  if Float.abs (many -. few) > 4.0 then
    Alcotest.failf "words per cycle: %.1f with 10 holders, %.1f with 1000" few
      many

(* Keys are injective on views: two views map to the same key exactly
   when they are equal, over many names (interned in random order),
   tables beside their row 0, and row ids up to the format's limit. *)
let prop_lock_keys_injective =
  let view =
    QCheck2.Gen.(
      let name = map (Printf.sprintf "t%d") (int_bound 299) in
      let row =
        frequency
          [ (3, return 0);
            (3, int_bound 20);
            (2, map (fun d -> Lock.max_row - d) (int_bound 3));
            (2, int_bound Lock.max_row) ]
      in
      frequency
        [ (1, map (fun t -> Lock.Table t) name);
          (2, map2 (fun t r -> Lock.Row (t, r)) name row) ])
  in
  let print = function
    | Lock.Table t -> "Table " ^ t
    | Lock.Row (t, r) -> Printf.sprintf "Row (%s, %d)" t r
  in
  QCheck2.Test.make ~name:"lock keys: equal exactly when views are equal"
    ~count:200
    ~print:QCheck2.Print.(list print)
    QCheck2.Gen.(list_size (int_range 2 120) view)
    (fun views ->
      let lm = Lock.create () in
      (* each table beside its row 0 *)
      let views =
        views
        @ List.concat_map
            (function
              | Lock.Table t -> [ Lock.Row (t, 0) ]
              | Lock.Row (t, _) -> [ Lock.Table t ])
            views
      in
      let keyed = List.map (fun v -> (v, Lock.key lm v)) views in
      List.for_all
        (fun (v, k) ->
          Lock.key lm v = k
          && List.for_all (fun (w, l) -> (k = l) = (v = w)) keyed)
        keyed)

let properties =
  List.map Gen.to_alcotest
    [ prop_lock_keys_injective;
      prop_lock_no_incompatible_holders;
      prop_lock_waits_for_differential;
      prop_lock_waits_for_long_queues;
      prop_lock_model_differential;
      prop_lock_model_long_queues;
      prop_recovery_idempotent ]

let () =
  Alcotest.run "txn"
    [ ( "lock",
        [ Alcotest.test_case "shared compatible" `Quick test_lock_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick test_lock_exclusive_conflicts;
          Alcotest.test_case "intention modes" `Quick test_lock_intention_modes;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "covered re-request" `Quick test_lock_covered_rerequest;
          Alcotest.test_case "fifo" `Quick test_lock_fifo;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock_detection;
          Alcotest.test_case "queue-order deadlock" `Quick test_lock_queue_order_deadlock;
          Alcotest.test_case "group cuts holder edge" `Quick test_lock_group_cuts_holder_edge;
          Alcotest.test_case "waiter removal" `Quick test_lock_waiter_removed_on_release;
          Alcotest.test_case "cost flat in holders" `Quick test_lock_cost_flat_in_holders;
          Alcotest.test_case "row 0 is not the table" `Quick test_lock_row_zero_not_table;
          Alcotest.test_case "key out of range" `Quick test_lock_key_out_of_range ] );
      ( "engine",
        [ Alcotest.test_case "commit visible" `Quick test_engine_commit_visible;
          Alcotest.test_case "abort undoes" `Quick test_engine_abort_undoes;
          Alcotest.test_case "writer blocks reader" `Quick test_engine_write_blocks_reader;
          Alcotest.test_case "readers share" `Quick test_engine_readers_share;
          Alcotest.test_case "disjoint writes" `Quick test_engine_row_locking_allows_disjoint_writes;
          Alcotest.test_case "deadlock victim" `Quick test_engine_deadlock_victim;
          Alcotest.test_case "savepoint rollback" `Quick test_engine_savepoint_rollback;
          Alcotest.test_case "grounding read lock (Fig 3b)" `Quick test_engine_grounding_read_lock;
          Alcotest.test_case "relaxed reads" `Quick test_engine_unlocked_reads_relaxed;
          Alcotest.test_case "api misuse" `Quick test_engine_api_misuse;
          Alcotest.test_case "group abort interleaved" `Quick test_group_abort_interleaved_writes;
          Alcotest.test_case "finished txns released" `Quick test_engine_finished_txns_released ] );
      ( "recovery",
        [ Alcotest.test_case "replay committed" `Quick test_recovery_replay_committed;
          Alcotest.test_case "widowed group rollback" `Quick test_recovery_entangled_group_rollback;
          Alcotest.test_case "group both commit" `Quick test_recovery_entangled_group_both_commit;
          Alcotest.test_case "transitive groups" `Quick test_recovery_transitive_groups;
          Alcotest.test_case "cascading victims" `Quick test_recovery_cascading_victims;
          Alcotest.test_case "pool snapshot" `Quick test_recovery_pool_snapshot;
          Alcotest.test_case "compensated rollback" `Quick test_recovery_statement_rollback_compensated;
          Alcotest.test_case "checkpoint + compact" `Quick test_checkpoint_and_compact;
          Alcotest.test_case "checkpoint + groups" `Quick test_checkpoint_preserves_groups_after;
          Alcotest.test_case "empty log" `Quick test_recovery_empty_log;
          Alcotest.test_case "compact w/o checkpoint" `Quick test_compact_without_checkpoint;
          Alcotest.test_case "program flag roundtrip" `Quick test_program_transactional_roundtrip;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent ] );
      ("properties", properties) ]

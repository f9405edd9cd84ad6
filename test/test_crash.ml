(* Crash-injection fuzzing: run entangled workloads with the WAL on,
   then simulate a crash after EVERY log record and recover. Recovery
   must never fail, must respect group atomicity (an entanglement group
   survives entirely or not at all), and recovering the complete log
   must reproduce the live database exactly. *)

(* [Gen] here is the shared test module, aliased before [open
   Ent_workload] shadows the name with the workload generators. *)
module Tgen = Gen
open Ent_core
open Ent_workload

(* the crash-workload builders are shared with test_fault and entsim *)
let run_workload = Tgen.run_workload
let dump_table = Tgen.dump_table
let group_atomic = Tgen.group_atomic

let test_every_prefix_recovers () =
  let world = run_workload ~pairs:6 ~with_rollbacks:true in
  let wal = Option.get (Ent_txn.Engine.log (Manager.engine world.manager)) in
  let total = Ent_txn.Wal.length wal in
  Alcotest.(check bool) "log is non-trivial" true (total > 50);
  for n = 0 to total do
    let prefix = Ent_txn.Wal.prefix wal n in
    match Ent_txn.Recovery.replay prefix with
    | _, analysis ->
      if not (group_atomic analysis) then
        Alcotest.failf "group atomicity violated at prefix %d/%d" n total
    | exception exn ->
      Alcotest.failf "recovery failed at prefix %d/%d: %s" n total
        (Printexc.to_string exn)
  done

let test_full_log_matches_live () =
  let world = run_workload ~pairs:5 ~with_rollbacks:false in
  let wal = Option.get (Ent_txn.Engine.log (Manager.engine world.manager)) in
  let recovered, analysis = Ent_txn.Recovery.replay (Ent_txn.Wal.records wal) in
  Alcotest.(check (list string)) "no victims on a clean log" []
    (List.map string_of_int analysis.group_victims);
  List.iter
    (fun table ->
      Alcotest.(check bool)
        (table ^ " identical after recovery")
        true
        (dump_table recovered table
        = dump_table (Manager.catalog world.manager) table))
    [ "User"; "Friends"; "Flight"; "Reserve" ]

let test_double_crash () =
  (* crash, recover, do more work, crash again, recover again *)
  let world = run_workload ~pairs:3 ~with_rollbacks:false in
  let before = List.length (Manager.query world.manager "SELECT uid FROM Reserve") in
  let m2 = Manager.crash_and_recover world.manager in
  List.iter
    (fun p -> ignore (Manager.submit m2 p))
    (Gen.batch
       { world with manager = m2 }
       ~transactional:true Gen.Entangled ~n:4 ~tag_base:500);
  Manager.drain m2;
  let m3 = Manager.crash_and_recover m2 in
  let after = List.length (Manager.query m3 "SELECT uid FROM Reserve") in
  Alcotest.(check int) "both generations of bookings survive" (before + 4) after

let test_wal_file_roundtrip () =
  let world = run_workload ~pairs:3 ~with_rollbacks:false in
  let wal = Option.get (Ent_txn.Engine.log (Manager.engine world.manager)) in
  let path = Filename.temp_file "entwal" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ent_txn.Wal.save wal path;
      let loaded = Ent_txn.Wal.load path in
      Alcotest.(check int) "same length" (Ent_txn.Wal.length wal)
        (Ent_txn.Wal.length loaded);
      let cat1, _ = Ent_txn.Recovery.replay (Ent_txn.Wal.records wal) in
      let cat2, _ = Ent_txn.Recovery.replay (Ent_txn.Wal.records loaded) in
      Alcotest.(check bool) "identical recovery" true
        (dump_table cat1 "Reserve" = dump_table cat2 "Reserve"));
  (* rejects non-WAL files *)
  let garbage = Filename.temp_file "garbage" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove garbage)
    (fun () ->
      let oc = open_out garbage in
      output_string oc "not a wal";
      close_out oc;
      try
        ignore (Ent_txn.Wal.load garbage);
        Alcotest.fail "garbage accepted"
      with Failure _ | End_of_file -> ())

let test_checkpoint_file_boot () =
  (* checkpoint to a file with a waiting transaction in the pool; boot a
     fresh system from the file: data AND pool survive *)
  let world = run_workload ~pairs:2 ~with_rollbacks:false in
  let lonely = Gen.lonely world ~n:1 ~tag_base:77 in
  List.iter (fun p -> ignore (Manager.submit world.manager p)) lonely;
  Manager.drain world.manager;
  let before = List.length (Manager.query world.manager "SELECT uid FROM Reserve") in
  let path = Filename.temp_file "entckpt" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manager.checkpoint_to_file world.manager path;
      let m2 = Manager.recover_from_file path in
      Alcotest.(check int) "bookings survive the file" before
        (List.length (Manager.query m2 "SELECT uid FROM Reserve"));
      Alcotest.(check int) "the waiting transaction is back in the pool" 1
        (List.length (Scheduler.dormant (Manager.scheduler m2))))

(* DROP TABLE executes immediately (DDL is not transactional) and is
   logged: a committed drop stays dropped after a crash and after a
   boot from a checkpoint file. *)
let test_drop_survives_recovery () =
  let m = Manager.create () in
  Manager.define_table m "T" [ ("a", Ent_storage.Schema.T_int) ];
  Manager.load_row m "T" [ Ent_storage.Value.Int 1 ];
  let id = Manager.submit_string m "BEGIN TRANSACTION; DROP TABLE T; COMMIT;" in
  Manager.drain m;
  Alcotest.(check bool) "drop committed" true
    (Manager.outcome m id = Some Scheduler.Committed);
  let has_t m = Ent_storage.Catalog.find (Manager.catalog m) "T" <> None in
  Alcotest.(check bool) "dropped live" false (has_t m);
  let m2 = Manager.crash_and_recover m in
  Alcotest.(check bool) "dropped after crash and recover" false (has_t m2);
  let path = Filename.temp_file "entdrop" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manager.checkpoint_to_file m2 path;
      Alcotest.(check bool) "dropped after a checkpoint file boot" false
        (has_t (Manager.recover_from_file path)))

let prop_prefix_recovery_group_atomic =
  QCheck2.Test.make ~name:"every crash point recovers group-atomically"
    ~count:15
    QCheck2.Gen.(pair (int_range 1 6) bool)
    (fun (pairs, with_rollbacks) ->
      let world = run_workload ~pairs ~with_rollbacks in
      let wal = Option.get (Ent_txn.Engine.log (Manager.engine world.manager)) in
      let total = Ent_txn.Wal.length wal in
      (* sample prefixes: all would be O(total^2) work *)
      let points =
        List.sort_uniq Int.compare
          [ 0; 1; total / 4; total / 2; (3 * total) / 4; total - 1; total ]
      in
      List.for_all
        (fun n ->
          if n < 0 then true
          else
            match Ent_txn.Recovery.replay (Ent_txn.Wal.prefix wal n) with
            | _, analysis -> group_atomic analysis
            | exception _ -> false)
        points)

let () =
  Alcotest.run "crash"
    [ ( "injection",
        [ Alcotest.test_case "every prefix recovers" `Slow test_every_prefix_recovers;
          Alcotest.test_case "full log matches live" `Quick test_full_log_matches_live;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "wal file roundtrip" `Quick test_wal_file_roundtrip;
          Alcotest.test_case "checkpoint file boot" `Quick test_checkpoint_file_boot;
          Alcotest.test_case "drop survives recovery" `Quick test_drop_survives_recovery ] );
      ( "properties",
        [ Tgen.to_alcotest prop_prefix_recovery_group_atomic ] ) ]

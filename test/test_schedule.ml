(* Tests for the formal model (Appendix C): schedule validity,
   quasi-read expansion, conflict graphs, the certifier's verdicts on
   the paper's Figure 3 scenarios, oracle-serializability, Theorem 3.6
   as a property over generated schedules, and checking recorded real
   executions. *)

open Ent_schedule
open History
module Histcheck = Ent_analysis.Histcheck

(* The certifier's violations on a replay of the schedule. *)
let violations h = Certify.violations (Certify.replay h)

let codes h =
  List.sort_uniq String.compare
    (List.map (fun (v : Certify.violation) -> v.code) (violations h))

let detail code h =
  match
    List.find_opt (fun (v : Certify.violation) -> v.code = code) (violations h)
  with
  | Some v -> v.detail
  | None -> Alcotest.failf "no %s violation" code

(* Definition C.5: Requirements C.2 (no cycles), C.3 (no read from
   aborted) and C.4 (no widowed transactions) all hold. *)
let entangled_isolated h =
  not
    (List.exists
       (fun c -> List.mem c (codes h))
       [ "conflict-cycle"; "read-from-aborted"; "widowed" ])

let x = Named "x"
let y = Named "y"
let z = Named "z"
let w = Named "w"

(* The example schedule of §C.1:
   RG1(x) RG2(y) R3(z) E1{1,2} W1(z) W2(w) C1 C2 C3 *)
let example_c1 =
  [ Ground_read (1, x);
    Ground_read (2, y);
    Read (3, z);
    Entangle (1, [ 1; 2 ]);
    Write (1, z);
    Write (2, w);
    Commit 1;
    Commit 2;
    Commit 3 ]

let test_validity_ok () =
  Alcotest.(check (list string)) "example is valid" [] (validity_errors example_c1)

let test_validity_errors () =
  let missing_terminal = [ Read (1, x) ] in
  Alcotest.(check bool) "missing terminal" true
    (validity_errors missing_terminal <> []);
  let after_commit = [ Commit 1; Write (1, x); Commit 1 ] in
  Alcotest.(check bool) "op after terminal" true
    (validity_errors after_commit <> []);
  let write_in_grounding_block =
    [ Ground_read (1, x); Write (1, y); Entangle (1, [ 1; 2 ]);
      Ground_read (2, y); Commit 1; Commit 2 ]
  in
  Alcotest.(check bool) "write inside grounding block" true
    (validity_errors write_in_grounding_block <> []);
  let commit_while_grounding = [ Ground_read (1, x); Commit 1 ] in
  Alcotest.(check bool) "commit with pending grounding" true
    (validity_errors commit_while_grounding <> [])

let test_quasi_read_expansion () =
  (* §C.2.1: (RG1(x) RQ2(x)) (RG2(y) RQ1(y)) R3(z) E ... *)
  let expanded = expand_quasi_reads example_c1 in
  let expected_prefix =
    [ Ground_read (1, x);
      Quasi_read (2, x);
      Ground_read (2, y);
      Quasi_read (1, y) ]
  in
  let prefix = List.filteri (fun i _ -> i < 4) expanded in
  Alcotest.(check bool) "expansion positions" true (prefix = expected_prefix);
  Alcotest.(check int) "two ops added" (List.length example_c1 + 2)
    (List.length expanded)

let test_quasi_read_no_entangle_no_expansion () =
  (* a grounding read followed by an abort induces no quasi-reads *)
  let s = [ Ground_read (1, x); Abort 1 ] in
  Alcotest.(check bool) "no expansion" true (expand_quasi_reads s = s)

let test_conflict_graph () =
  let graph = Conflict.of_schedule (expand_quasi_reads example_c1) in
  Alcotest.(check (list int)) "nodes" [ 1; 2; 3 ] (Conflict.nodes graph);
  (* R3(z) before W1(z): edge 3 -> 1 *)
  Alcotest.(check (list (pair int int))) "edges" [ (3, 1) ] (Conflict.edges graph);
  Alcotest.(check bool) "acyclic" false (Conflict.has_cycle graph);
  match Conflict.topo_order graph with
  | Some order ->
    let pos v = Option.get (List.find_index (fun u -> u = v) order) in
    Alcotest.(check bool) "3 before 1" true (pos 3 < pos 1)
  | None -> Alcotest.fail "no topo order"

let test_example_isolated_and_serializable () =
  Alcotest.(check bool) "entangled isolated" true
    (entangled_isolated example_c1);
  Alcotest.(check bool) "oracle serializable" true
    (Abstract.oracle_serializable example_c1)

let test_appendix_serialization_order () =
  (* §C.3.2 serializes the example in the order 3, 1, 2:
     R3(z) C3 O1_1 W1(z) C1 O1_2 W2(w) C2 — the replay must be valid and
     reach the same final database. *)
  let exec = Abstract.execute example_c1 in
  let r = Abstract.replay example_c1 exec [ 3; 1; 2 ] in
  Alcotest.(check bool) "valid oracle execution" true r.replay_valid;
  Alcotest.(check bool) "same final database" true (r.replay_final = exec.final);
  (* the order 1, 3, 2 contradicts the conflict edge 3 -> 1: transaction
     1 overwrites z before 3 reads it, so 3 observes a different value —
     but final-state equivalence doesn't care about 3's reads since it
     writes nothing; the replay is still accepted. The conflict-graph
     order is the one the theorem guarantees. *)
  ignore (Abstract.replay example_c1 exec [ 1; 3; 2 ])

let test_unrepeatable_classical_read () =
  (* R1(x) W2(x) C2 R1(x) C1: the classical unrepeatable read shows up
     as a conflict cycle (Requirement C.2). *)
  let s =
    [ Read (1, x); Write (2, x); Commit 2; Read (1, x); Commit 1 ]
  in
  Alcotest.(check bool) "cycle detected" true
    (List.mem "conflict-cycle" (codes s));
  Alcotest.(check bool) "not isolated" false (entangled_isolated s)

let test_entangle_between_grounding_blocks () =
  (* two entangled queries in sequence in the same transaction: the
     second grounding block associates with the second event only *)
  let s =
    [ Ground_read (1, x);
      Ground_read (2, x);
      Entangle (1, [ 1; 2 ]);
      Ground_read (1, y);
      Ground_read (2, y);
      Entangle (2, [ 1; 2 ]);
      Commit 1;
      Commit 2 ]
  in
  Alcotest.(check (list string)) "valid" [] (validity_errors s);
  let expanded = expand_quasi_reads s in
  (* each grounding read gains exactly one quasi-read *)
  Alcotest.(check int) "four quasi-reads" (List.length s + 4)
    (List.length expanded);
  Alcotest.(check bool) "isolated" true (entangled_isolated s);
  Alcotest.(check bool) "serializable" true (Abstract.oracle_serializable s)

(* Figure 3(a): Mickey (1) and Minnie (2) entangle; Minnie aborts while
   Mickey commits — a widowed transaction. *)
let figure_3a =
  [ Ground_read (1, x);
    Ground_read (2, x);
    Entangle (1, [ 1; 2 ]);
    Write (1, y);
    Write (2, z);
    Abort 2;
    Commit 1 ]

let test_widowed_detection () =
  Alcotest.(check string) "requirement C.4 violated"
    "entanglement E1 joins T2 (aborted) with T1 (committed)"
    (detail "widowed" figure_3a);
  Alcotest.(check bool) "not isolated" false
    (entangled_isolated figure_3a);
  (* group commit turns the same history into an isolated one *)
  let both_commit =
    List.map
      (fun op ->
        match op with
        | Abort 2 -> Commit 2
        | op -> op)
      figure_3a
  in
  Alcotest.(check bool) "both-commit variant is isolated" true
    (entangled_isolated both_commit)

(* Figure 3(b): Minnie (2) grounds on Airlines; Mickey (1) entangles
   with her (so he quasi-reads Airlines); Donald (3) inserts into
   Airlines and commits; Mickey then reads Airlines himself and writes
   a summary based on it. Unrepeatable quasi-read. *)
let airlines = Named "Airlines"
let flights = Named "Flights"

let figure_3b =
  [ Ground_read (1, flights);
    Ground_read (2, flights);
    Ground_read (2, airlines);
    Entangle (1, [ 1; 2 ]);
    Write (3, airlines);
    Commit 3;
    Read (1, airlines);
    Write (1, w);
    Commit 1;
    Commit 2 ]

let test_unrepeatable_quasi_read_detection () =
  Alcotest.(check string) "Mickey re-reads Airlines"
    "T1 quasi-read Airlines@3, a foreign write at 5 invalidated it, and T1 \
     read it again at 7"
    (detail "unrepeatable-quasi-read" figure_3b);
  (* the quasi-read makes the conflict graph cyclic: 1 -> 3 (RQ before
     W) and 3 -> 1 (W before R) *)
  Alcotest.(check bool) "cycle" true
    (Conflict.has_cycle (Conflict.of_schedule (expand_quasi_reads figure_3b)));
  Alcotest.(check bool) "not isolated" false
    (entangled_isolated figure_3b)
  (* Note: Theorem 3.6 is one-directional. This schedule is in fact
     still final-state oracle-serializable (order Minnie, Donald,
     Mickey validates), exactly like classical conflict- vs
     final-state-serializability. *)

let test_anomaly_report_and_level () =
  let report h = Histcheck.check (Certify.replay h) h in
  let report_codes h =
    List.map (fun (v : Histcheck.violation) -> v.code) (report h).violations
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "clean schedule" [] (report_codes example_c1);
  Alcotest.(check bool) "full level" true ((report example_c1).level = `Full);
  Alcotest.(check (list string)) "widow reported" [ "widowed" ]
    (report_codes figure_3a);
  Alcotest.(check bool) "3a is loose" true ((report figure_3a).level = `Loose);
  Alcotest.(check (list string)) "3b"
    [ "conflict-cycle"; "unrepeatable-quasi-read" ]
    (report_codes figure_3b);
  Alcotest.(check bool) "3b avoids widows" true
    ((report figure_3b).level = `No_widow)

let test_dirty_read_detection () =
  let s = [ Write (1, x); Read (2, x); Abort 1; Commit 2 ] in
  Alcotest.(check string) "req C.3 violated"
    "T2 committed after it read x after aborted T1 wrote it at 1"
    (detail "read-from-aborted" s)

let test_read_from_aborted_ok_when_reader_aborts () =
  (* C.3 only protects committed readers *)
  let s = [ Write (1, x); Read (2, x); Abort 1; Abort 2 ] in
  Alcotest.(check (list string)) "no violation" [] (codes s)

(* The abstract machine undoes an abort as the engine does: a read
   after the writer's abort sees the restored store, so the schedule is
   both isolated and oracle-serializable. A read before the abort is a
   dirty read. *)
let test_abstract_read_after_abort () =
  let after = [ Write (2, x); Abort 2; Read (1, x); Write (1, y); Commit 1 ] in
  Alcotest.(check (list string)) "after: no violation" [] (codes after);
  Alcotest.(check bool) "after: oracle-serializable" true
    (Abstract.oracle_serializable after);
  let before = [ Write (2, x); Read (1, x); Abort 2; Write (1, y); Commit 1 ] in
  Alcotest.(check (list string)) "before: dirty read" [ "read-from-aborted" ]
    (codes before);
  Alcotest.(check bool) "before: not oracle-serializable" false
    (Abstract.oracle_serializable before)

(* --- abstract machine sanity --- *)

let test_abstract_execution_determinism () =
  let e1 = Abstract.execute example_c1 in
  let e2 = Abstract.execute example_c1 in
  Alcotest.(check bool) "same final" true (e1.final = e2.final);
  Alcotest.(check int) "one event" 1 (List.length e1.event_answers)

let test_abstract_serial_schedule_replays_itself () =
  let serial =
    [ Read (1, x); Write (1, y); Commit 1; Read (2, y); Write (2, z); Commit 2 ]
  in
  let exec = Abstract.execute serial in
  let r = Abstract.replay serial exec [ 1; 2 ] in
  Alcotest.(check bool) "valid" true r.replay_valid;
  Alcotest.(check bool) "same final" true (r.replay_final = exec.final)

let test_lost_update_not_serializable () =
  (* classical lost-update interleaving: R1(x) R2(x) W1(x) W2(x) —
     cyclic conflicts, and no serial order reproduces the final state
     with both reads seeing 0 *)
  let s = [ Read (1, x); Read (2, x); Write (1, x); Write (2, x); Commit 1; Commit 2 ] in
  Alcotest.(check bool) "not isolated" false (entangled_isolated s);
  Alcotest.(check bool) "not oracle-serializable" false (Abstract.oracle_serializable s)

(* --- Theorem 3.6 as a property --- *)

let prop_generated_schedules_valid =
  QCheck2.Test.make ~name:"generator produces valid schedules" ~count:300
    ~print:Gen.print_seeded_schedule Gen.seeded_schedule_gen
    (fun seed -> validity_errors (Gen.schedule_of_seed seed) = [])

let prop_theorem_3_6 =
  QCheck2.Test.make
    ~name:"Theorem 3.6: entangled-isolated implies oracle-serializable"
    ~count:800 ~print:Gen.print_seeded_schedule Gen.seeded_schedule_gen
    (fun seed ->
      let s = Gen.schedule_of_seed seed in
      (not (entangled_isolated s)) || Abstract.oracle_serializable s)

let prop_serial_always_isolated =
  (* sanity: schedules where transactions run one after another (with a
     query oracle folded away, i.e. no entanglement) are isolated *)
  QCheck2.Test.make ~name:"serial schedules are entangled-isolated" ~count:200
    QCheck2.Gen.(list_size (int_range 1 5) (list_size (int_range 1 5) (int_range 0 100)))
    (fun txn_scripts ->
      let objects = [| x; y; z; w |] in
      let s =
        List.concat
          (List.mapi
             (fun i script ->
               let txn = i + 1 in
               List.map
                 (fun r ->
                   if r mod 2 = 0 then Read (txn, objects.(r mod 4))
                   else Write (txn, objects.(r mod 4)))
                 script
               @ [ Commit txn ])
             txn_scripts)
      in
      entangled_isolated s && Abstract.oracle_serializable s)

(* --- recorded real executions --- *)

let record_real_execution () =
  let open Ent_core in
  let m = Manager.create () in
  let recorder = Recorder.create () in
  Manager.observe m ~on_event:(Recorder.on_engine_event recorder)
    ~on_entangle:(Recorder.on_entangle recorder);
  Manager.define_table m "Flights"
    [ ("fno", Ent_storage.Schema.T_int); ("dest", Ent_storage.Schema.T_str) ];
  Manager.define_table m "Reserve"
    [ ("name", Ent_storage.Schema.T_str); ("fno", Ent_storage.Schema.T_int) ];
  for i = 1 to 3 do
    Manager.load_row m "Flights" [ Int i; Str "LA" ]
  done;
  let program me partner =
    Printf.sprintf
      "BEGIN TRANSACTION;\n\
       SELECT '%s', fno AS @fno INTO ANSWER R\n\
       WHERE (fno) IN (SELECT fno FROM Flights WHERE dest='LA')\n\
       AND ('%s', fno) IN ANSWER R CHOOSE 1;\n\
       INSERT INTO Reserve VALUES ('%s', @fno);\n\
       COMMIT;"
      me partner me
  in
  List.iter
    (fun (a, b) -> ignore (Manager.submit_string m (program a b)))
    [ ("Mickey", "Minnie"); ("Minnie", "Mickey");
      ("Donald", "Daffy"); ("Daffy", "Donald") ];
  Manager.drain m;
  recorder

let test_recorded_history_valid () =
  let recorder = record_real_execution () in
  let history = Recorder.completed_history recorder in
  Alcotest.(check (list string)) "valid" [] (validity_errors history);
  Alcotest.(check bool) "has entangle ops" true
    (List.exists
       (function
         | Entangle _ -> true
         | _ -> false)
       history)

let test_recorded_history_isolated () =
  let recorder = record_real_execution () in
  let history = Recorder.completed_history recorder in
  Alcotest.(check bool) "entangled isolated (full 2PL + group commit)" true
    (entangled_isolated history);
  Alcotest.(check bool) "oracle serializable" true
    (Abstract.oracle_serializable history)

let () =
  Alcotest.run "schedule"
    [ ( "history",
        [ Alcotest.test_case "validity ok" `Quick test_validity_ok;
          Alcotest.test_case "validity errors" `Quick test_validity_errors;
          Alcotest.test_case "quasi-read expansion" `Quick test_quasi_read_expansion;
          Alcotest.test_case "no expansion on abort" `Quick
            test_quasi_read_no_entangle_no_expansion ] );
      ( "conflict",
        [ Alcotest.test_case "graph of example" `Quick test_conflict_graph ] );
      ( "anomaly",
        [ Alcotest.test_case "example isolated" `Quick test_example_isolated_and_serializable;
          Alcotest.test_case "appendix serialization order" `Quick test_appendix_serialization_order;
          Alcotest.test_case "unrepeatable classical read" `Quick test_unrepeatable_classical_read;
          Alcotest.test_case "two grounding blocks" `Quick test_entangle_between_grounding_blocks;
          Alcotest.test_case "widowed (Fig 3a)" `Quick test_widowed_detection;
          Alcotest.test_case "unrepeatable quasi-read (Fig 3b)" `Quick
            test_unrepeatable_quasi_read_detection;
          Alcotest.test_case "anomaly report/level" `Quick test_anomaly_report_and_level;
          Alcotest.test_case "dirty read" `Quick test_dirty_read_detection;
          Alcotest.test_case "aborted reader ok" `Quick
            test_read_from_aborted_ok_when_reader_aborts ] );
      ( "abstract",
        [ Alcotest.test_case "determinism" `Quick test_abstract_execution_determinism;
          Alcotest.test_case "serial replay" `Quick test_abstract_serial_schedule_replays_itself;
          Alcotest.test_case "lost update" `Quick test_lost_update_not_serializable;
          Alcotest.test_case "read after abort" `Quick test_abstract_read_after_abort ] );
      ( "recorded",
        [ Alcotest.test_case "real history valid" `Quick test_recorded_history_valid;
          Alcotest.test_case "real history isolated" `Quick test_recorded_history_isolated ] );
      ( "properties",
        List.map Gen.to_alcotest
          [ prop_generated_schedules_valid;
            prop_theorem_3_6;
            prop_serial_always_isolated ] ) ]

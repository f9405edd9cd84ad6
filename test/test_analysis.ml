(* Tests for the entlint analysis library: the predicate abstraction,
   the static lint passes over the seeded fixture programs, the history
   parser, and the history checker on the Figure 3 anomaly schedules —
   all through the same Driver paths the CLI uses. *)

open Ent_analysis

let codes findings =
  List.map (fun (f : Finding.t) -> f.code) findings |> List.sort String.compare

let errors findings = List.filter Finding.is_error findings

let inputs_of_fixture name =
  match Driver.inputs_of_file ("fixtures/" ^ name) with
  | Ok inputs -> inputs
  | Error msg -> Alcotest.failf "loading %s: %s" name msg

let lint_fixture name = Lint.run (inputs_of_fixture name)

(* --- predicate abstraction --- *)

let pred_of_where ?(owns = fun _ -> true) text =
  Pred.of_cond ~owns (Ent_sql.Parser.parse_cond text)

let test_pred_unsat () =
  Alcotest.(check bool) "contradictory equalities" true
    (Pred.unsat (pred_of_where "a = 1 AND a = 2"));
  Alcotest.(check bool) "empty range" true
    (Pred.unsat (pred_of_where "a > 10 AND a < 5"));
  Alcotest.(check bool) "eq outside IN-list" true
    (Pred.unsat (pred_of_where "a = 4 AND a IN (1, 2, 3)"));
  Alcotest.(check bool) "constant falsum" true
    (Pred.unsat (pred_of_where "1 = 2"));
  Alcotest.(check bool) "satisfiable" false
    (Pred.unsat (pred_of_where "a = 1 AND b > 2 AND a IN (1, 2)"));
  Alcotest.(check bool) "boundary kept" false
    (Pred.unsat (pred_of_where "a >= 5 AND a <= 5"));
  Alcotest.(check bool) "strict boundary empty" true
    (Pred.unsat (pred_of_where "a >= 5 AND a < 5"))

let test_pred_overlap () =
  let p s = pred_of_where s in
  Alcotest.(check bool) "same key" true
    (Pred.may_overlap (p "a = 1") (p "a = 1"));
  Alcotest.(check bool) "different keys" false
    (Pred.may_overlap (p "a = 1") (p "a = 2"));
  Alcotest.(check bool) "range vs point inside" true
    (Pred.may_overlap (p "a > 0 AND a < 10") (p "a = 5"));
  Alcotest.(check bool) "range vs point outside" false
    (Pred.may_overlap (p "a > 0 AND a < 10") (p "a = 12"));
  Alcotest.(check bool) "disjoint IN-lists" false
    (Pred.may_overlap (p "a IN (1, 2)") (p "a IN (3, 4)"));
  Alcotest.(check bool) "unconstrained may overlap anything" true
    (Pred.may_overlap (p "a = 1") Pred.top);
  (* constraints on different columns never prove disjointness *)
  Alcotest.(check bool) "different columns" true
    (Pred.may_overlap (p "a = 1") (p "b = 2"))

let test_pred_count () =
  let p = pred_of_where "a IN (1, 2, 3) AND a <> 2 AND b > 0" in
  Alcotest.(check (option int)) "filtered IN-list" (Some 2) (Pred.count p "a");
  Alcotest.(check (option int)) "bounded-only column" None (Pred.count p "b");
  Alcotest.(check (option int)) "unknown column" None (Pred.count p "c")

(* --- static lint passes on the seeded fixtures --- *)

let test_lint_deadlock_pair () =
  let findings = lint_fixture "deadlock_pair.sql" in
  Alcotest.(check (list string)) "one deadlock error" [ "potential-deadlock" ]
    (codes findings);
  match findings with
  | [ f ] ->
    Alcotest.(check bool) "is error" true (Finding.is_error f);
    Alcotest.(check int) "witness names both programs" 2 (List.length f.witness);
    Alcotest.(check bool) "positions in witness" true
      (List.for_all
         (fun line ->
           (* each witness line carries two source positions *)
           List.length (String.split_on_char ':' line) >= 3)
         f.witness)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_lint_disjoint_pair () =
  (* same opposite lock order, but provably disjoint predicates *)
  Alcotest.(check (list string)) "no findings" []
    (codes (lint_fixture "disjoint_pair.sql"))

let test_lint_unsat_choose () =
  let findings = lint_fixture "unsat_choose.sql" in
  Alcotest.(check (list string)) "codes"
    [ "choose-bound"; "choose-unsupported"; "unsat-entangled" ]
    (codes findings);
  Alcotest.(check int) "all errors" 3 (List.length (errors findings));
  let unsat =
    List.find (fun (f : Finding.t) -> f.code = "unsat-entangled") findings
  in
  Alcotest.(check string) "in txn-1" "txn-1" unsat.program;
  Alcotest.(check bool) "witness names the column" true
    (List.exists
       (fun line ->
         String.length line >= 10 && String.sub line 0 10 = "column fno")
       unsat.witness)

let test_lint_widow_risk () =
  let findings = lint_fixture "widow_risk.sql" in
  Alcotest.(check (list string)) "both widow findings"
    [ "widow-risk"; "widow-risk" ] (codes findings);
  Alcotest.(check int) "rollback variant is the error" 1
    (List.length (errors findings))

let test_lint_autocommit_hazard () =
  let findings = lint_fixture "autocommit_hazard.sql" in
  Alcotest.(check (list string)) "hazard flagged" [ "autocommit-entangle" ]
    (codes findings);
  Alcotest.(check int) "warning only" 0 (List.length (errors findings))

let test_lint_clean_examples () =
  List.iter
    (fun path ->
      match Driver.inputs_of_file path with
      | Error msg -> Alcotest.failf "loading %s: %s" path msg
      | Ok inputs ->
        Alcotest.(check (list string)) (path ^ " is clean") []
          (codes (Lint.run inputs)))
    [ "../examples/sql/booking_pair.sql"; "../examples/sql/dinner_party.sql" ]

let test_lint_positions () =
  (* findings point at the offending statement, 1-based *)
  let findings = lint_fixture "widow_risk.sql" in
  let lines =
    List.map (fun (f : Finding.t) -> f.at.Ent_sql.Ast.line) findings
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "statement lines" [ 13; 14 ] lines

let test_parse_error_has_position () =
  match Driver.inputs_of_script ~source:"bad.sql" "BEGIN TRANSACTION; SELECT FROM;" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    Alcotest.(check bool) ("position in " ^ msg) true
      (List.exists
         (fun part -> part = "1") (* line 1 appears as a :1: component *)
         (String.split_on_char ':' msg))

let test_exit_codes () =
  let deadlock = lint_fixture "deadlock_pair.sql" in
  let hazard = lint_fixture "autocommit_hazard.sql" in
  Alcotest.(check int) "errors gate" 1 (Driver.exit_code deadlock);
  Alcotest.(check int) "warnings pass" 0 (Driver.exit_code hazard);
  Alcotest.(check int) "warnings gate under strict" 1
    (Driver.exit_code ~strict:true hazard);
  Alcotest.(check int) "clean" 0 (Driver.exit_code [])

(* --- workload mode --- *)

let test_workload_lint () =
  (match Driver.workload_inputs ~n:4 "entangled-t" with
  | Error msg -> Alcotest.fail msg
  | Ok inputs ->
    Alcotest.(check int) "four programs" 4 (List.length inputs);
    Alcotest.(check (list string)) "transactional workload is clean" []
      (codes (Lint.run inputs)));
  (match Driver.workload_inputs ~n:2 "entangled-q" with
  | Error msg -> Alcotest.fail msg
  | Ok inputs ->
    let findings = Lint.run inputs in
    Alcotest.(check (list string)) "-Q flagged"
      [ "autocommit-entangle"; "autocommit-entangle" ] (codes findings));
  match Driver.workload_inputs "no-such" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload accepted"

(* --- the conflict/commutativity matrix --- *)

let test_matrix_deadlock_pair () =
  let m = Matrix.analyze (inputs_of_fixture "deadlock_pair.sql") in
  Alcotest.(check int) "two programs" 2 (Array.length m.inputs);
  Alcotest.(check bool) "off-diagonal conflicts" true
    (m.cells.(0).(1).verdict <> Matrix.Commutes);
  Alcotest.(check bool) "symmetric verdict" true
    (m.cells.(0).(1).verdict = m.cells.(1).(0).verdict);
  Alcotest.(check bool) "lock cycle found" true (m.cycles <> []);
  (* the matrix path reports exactly what the lint path reports *)
  Alcotest.(check (list string)) "same findings" [ "potential-deadlock" ]
    (codes (Matrix.deadlock_findings m))

let test_matrix_disjoint_pair () =
  let m = Matrix.analyze (inputs_of_fixture "disjoint_pair.sql") in
  Alcotest.(check bool) "provably disjoint programs commute" true
    (m.cells.(0).(1).verdict = Matrix.Commutes);
  Alcotest.(check bool) "no witnesses when commuting" true
    (m.cells.(0).(1).witnesses = []);
  Alcotest.(check (list (list string))) "no deadlock cycles" []
    (List.map (List.map (fun (e : Matrix.edge) -> e.eu)) m.cycles)

let test_matrix_workload () =
  match Driver.workload_inputs ~n:4 "entangled-t" with
  | Error msg -> Alcotest.fail msg
  | Ok inputs ->
    let m = Matrix.analyze inputs in
    (* two instances of the same booking program race on Reserve *)
    Alcotest.(check bool) "diagonal self-conflict" true
      (m.cells.(0).(0).verdict <> Matrix.Commutes);
    Alcotest.(check bool) "lock-order edges exist" true (m.edges <> []);
    Alcotest.(check (list (list string))) "statically deadlock-free" []
      (List.map (List.map (fun (e : Matrix.edge) -> e.eu)) m.cycles);
    let rendered = Format.asprintf "%a" Matrix.pp m in
    Alcotest.(check bool) "pp states deadlock-freedom" true
      (let needle = "deadlock-free" in
       let n = String.length needle in
       let rec find i =
         i + n <= String.length rendered
         && (String.sub rendered i n = needle || find (i + 1))
       in
       find 0);
    (match Matrix.to_json m with
    | Ent_obs.Json.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("json has " ^ k) true (List.mem_assoc k fields))
        [ "programs"; "matrix"; "lock_order" ]
    | _ -> Alcotest.fail "to_json is not an object");
    let dot = Matrix.lock_graph_dot m in
    Alcotest.(check bool) "dot output" true
      (String.length dot > 7 && String.sub dot 0 7 = "digraph")

(* --- finding deduplication and JSON rendering --- *)

let test_dedupe () =
  let fs = lint_fixture "widow_risk.sql" in
  Alcotest.(check bool) "fixture has findings" true (fs <> []);
  let sorted = List.stable_sort Finding.compare fs in
  Alcotest.(check bool) "idempotent" true (Driver.dedupe fs = sorted);
  (* duplicated input collapses back to the original *)
  Alcotest.(check bool) "duplicates dropped" true
    (Driver.dedupe (fs @ fs) = sorted);
  Alcotest.(check int) "count preserved" (List.length fs)
    (List.length (Driver.dedupe (List.rev fs @ fs)))

let test_findings_json () =
  let fs = lint_fixture "deadlock_pair.sql" in
  match Driver.findings_json fs with
  | Ent_obs.Json.Obj fields ->
    (match List.assoc_opt "errors" fields with
    | Some (Ent_obs.Json.Int n) ->
      Alcotest.(check int) "errors counted" (List.length (errors fs)) n
    | _ -> Alcotest.fail "errors field missing");
    (match List.assoc_opt "findings" fields with
    | Some (Ent_obs.Json.List items) ->
      Alcotest.(check int) "all findings rendered" (List.length fs)
        (List.length items);
      List.iter
        (function
          | Ent_obs.Json.Obj f ->
            List.iter
              (fun k ->
                Alcotest.(check bool) ("finding has " ^ k) true
                  (List.mem_assoc k f))
              [ "code"; "severity"; "source"; "line"; "col"; "message" ]
          | _ -> Alcotest.fail "finding is not an object")
        items
    | _ -> Alcotest.fail "findings field missing")
  | _ -> Alcotest.fail "findings_json is not an object"

(* --- history parsing --- *)

let test_histparse_roundtrip () =
  let open Ent_schedule.History in
  let text = "RG1(Flights) RQ2(Flights) R3(x) W1(Reserve[5]) E1{1,2} C1 C2 A3" in
  let parsed =
    match Driver.history_of_text text with
    | Ok h -> h
    | Error msg -> Alcotest.fail msg
  in
  let expected =
    [ Ground_read (1, Table "Flights");
      Quasi_read (2, Table "Flights");
      Read (3, Table "x");
      Write (1, Row ("Reserve", 5));
      Entangle (1, [ 1; 2 ]);
      Commit 1;
      Commit 2;
      Abort 3 ]
  in
  Alcotest.(check bool) "ops" true (parsed = expected);
  (* printing a parsed history and re-parsing it is the identity *)
  let printed = Format.asprintf "%a" pp parsed in
  Alcotest.(check bool) "roundtrip" true
    (Driver.history_of_text printed = Ok parsed)

let test_histparse_comments_and_errors () =
  (match Driver.history_of_text "# comment\nC1 # trailing\n" with
  | Ok [ Ent_schedule.History.Commit 1 ] -> ()
  | Ok _ -> Alcotest.fail "unexpected ops"
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Driver.history_of_text bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "X1(x)"; "R(x)"; "W1[x]"; "E1{}"; "R1(Reserve[x])" ]

(* --- history checking (the Figure 3 anomalies, via files) --- *)

let check_fixture name =
  match Result.bind (Driver.read_file ("fixtures/" ^ name)) Driver.history_of_text with
  | Ok h -> Histcheck.check (Ent_schedule.Certify.replay h) h
  | Error msg -> Alcotest.failf "loading %s: %s" name msg

let violation_codes (r : Histcheck.report) =
  List.map (fun (v : Histcheck.violation) -> v.code) r.violations
  |> List.sort String.compare

let test_check_fig3a_widow () =
  let r = check_fixture "fig3a_widow.txt" in
  Alcotest.(check (list string)) "valid" [] r.validity;
  Alcotest.(check (list string)) "widowed" [ "widowed" ] (violation_codes r);
  Alcotest.(check bool) "not ok" false (Histcheck.ok r);
  let v = List.hd r.violations in
  Alcotest.(check string) "witness" "entanglement E1 joins T2 (aborted) with T1 (committed)"
    v.witness

let test_check_fig3b_quasi () =
  let r = check_fixture "fig3b_quasi.txt" in
  Alcotest.(check (list string)) "cycle + unrepeatable quasi-read"
    [ "conflict-cycle"; "unrepeatable-quasi-read" ] (violation_codes r);
  let cycle = List.hd r.violations in
  Alcotest.(check string) "concrete cycle witness"
    "T3 -> T1 -> T3 (closing conflict: T1@3 before W3(Airlines)@5)"
    cycle.witness;
  Alcotest.(check bool) "not ok" false (Histcheck.ok r)

let test_check_fig3c_dirty () =
  let r = check_fixture "fig3c_dirty.txt" in
  Alcotest.(check (list string)) "read-from-aborted" [ "read-from-aborted" ]
    (violation_codes r);
  let v = List.hd r.violations in
  Alcotest.(check string) "witness names the pair and object"
    "T2 committed after it read x after aborted T1 wrote it at 1" v.witness;
  Alcotest.(check bool) "not ok" false (Histcheck.ok r)

let test_check_clean_history () =
  let r = check_fixture "../../examples/histories/serializable.txt" in
  Alcotest.(check (list string)) "no violations" [] (violation_codes r);
  Alcotest.(check bool) "ok" true (Histcheck.ok r);
  Alcotest.(check (option bool)) "serializable" (Some true) r.serializable;
  Alcotest.(check bool) "full level" true (r.level = `Full)

(* --- recording real executions through the Driver --- *)

let booking_script =
  "CREATE TABLE Flights (fno INT, dest STRING);\n\
   CREATE TABLE Reserve (name STRING, fno INT);\n\
   INSERT INTO Flights VALUES (1, 'LA');\n\
   INSERT INTO Flights VALUES (2, 'LA');\n\
   BEGIN TRANSACTION;\n\
   SELECT 'Mickey', fno AS @fno INTO ANSWER R\n\
   WHERE (fno) IN (SELECT fno FROM Flights WHERE dest = 'LA')\n\
   AND ('Minnie', fno) IN ANSWER R CHOOSE 1;\n\
   INSERT INTO Reserve VALUES ('Mickey', @fno);\n\
   COMMIT;\n\
   BEGIN TRANSACTION;\n\
   SELECT 'Minnie', fno AS @fno INTO ANSWER R\n\
   WHERE (fno) IN (SELECT fno FROM Flights WHERE dest = 'LA')\n\
   AND ('Mickey', fno) IN ANSWER R CHOOSE 1;\n\
   INSERT INTO Reserve VALUES ('Minnie', @fno);\n\
   COMMIT;"

let test_record_script () =
  match Driver.record_script booking_script with
  | Error msg -> Alcotest.fail msg
  | Ok (history, certifier) ->
    let r = Histcheck.check certifier history in
    Alcotest.(check (list string)) "valid schedule" [] r.validity;
    Alcotest.(check (list string)) "no anomalies under full isolation" []
      (violation_codes r);
    Alcotest.(check bool) "ok" true (Histcheck.ok r);
    Alcotest.(check bool) "records the entanglement" true
      (List.exists
         (function
           | Ent_schedule.History.Entangle _ -> true
           | _ -> false)
         history)

let test_record_bad_isolation () =
  match Driver.record_script ~isolation:"bogus" booking_script with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bogus isolation level"

let () =
  Alcotest.run "analysis"
    [ ( "pred",
        [ Alcotest.test_case "unsat" `Quick test_pred_unsat;
          Alcotest.test_case "overlap" `Quick test_pred_overlap;
          Alcotest.test_case "count" `Quick test_pred_count ] );
      ( "lint",
        [ Alcotest.test_case "deadlock pair" `Quick test_lint_deadlock_pair;
          Alcotest.test_case "disjoint pair" `Quick test_lint_disjoint_pair;
          Alcotest.test_case "unsat + choose" `Quick test_lint_unsat_choose;
          Alcotest.test_case "widow risk" `Quick test_lint_widow_risk;
          Alcotest.test_case "autocommit hazard" `Quick test_lint_autocommit_hazard;
          Alcotest.test_case "clean examples" `Quick test_lint_clean_examples;
          Alcotest.test_case "finding positions" `Quick test_lint_positions;
          Alcotest.test_case "parse error position" `Quick test_parse_error_has_position;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "workloads" `Quick test_workload_lint ] );
      ( "matrix",
        [ Alcotest.test_case "deadlock pair" `Quick test_matrix_deadlock_pair;
          Alcotest.test_case "disjoint pair" `Quick test_matrix_disjoint_pair;
          Alcotest.test_case "workload suite" `Quick test_matrix_workload ] );
      ( "driver",
        [ Alcotest.test_case "dedupe" `Quick test_dedupe;
          Alcotest.test_case "findings json" `Quick test_findings_json ] );
      ( "histparse",
        [ Alcotest.test_case "roundtrip" `Quick test_histparse_roundtrip;
          Alcotest.test_case "comments and errors" `Quick
            test_histparse_comments_and_errors ] );
      ( "histcheck",
        [ Alcotest.test_case "figure 3a widowed" `Quick test_check_fig3a_widow;
          Alcotest.test_case "figure 3b quasi-read" `Quick test_check_fig3b_quasi;
          Alcotest.test_case "figure 3c dirty read" `Quick test_check_fig3c_dirty;
          Alcotest.test_case "clean history" `Quick test_check_clean_history ] );
      ( "record",
        [ Alcotest.test_case "record and check" `Quick test_record_script;
          Alcotest.test_case "bad isolation" `Quick test_record_bad_isolation ] )
    ]

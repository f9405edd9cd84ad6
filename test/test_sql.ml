(* Tests for the SQL dialect: lexer, parser (on the paper's own
   queries), pretty-printer round-trips, and the evaluator over the
   Figure 1 database. *)

open Ent_storage
open Ent_sql

(* --- paper fixtures --- *)

let mickey_query =
  "SELECT 'Mickey', fno, fdate INTO ANSWER Reservation\n\
   WHERE (fno, fdate) IN\n\
  \  (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
   AND ('Minnie', fno, fdate) IN ANSWER Reservation\n\
   CHOOSE 1"

let minnie_query =
  "SELECT 'Minnie', fno, fdate INTO ANSWER Reservation\n\
   WHERE (fno, fdate) IN\n\
  \  (SELECT F.fno, F.fdate FROM Flights F, Airlines A WHERE\n\
  \   F.dest='LA' AND F.fno = A.fno AND A.airline = 'United')\n\
   AND ('Mickey', fno, fdate) IN ANSWER Reservation\n\
   CHOOSE 1"

let figure2_transaction =
  "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;\n\
   SELECT 'Mickey', fno, fdate AS @ArrivalDay\n\
   INTO ANSWER FlightRes\n\
   WHERE (fno, fdate) IN\n\
  \  (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
   AND ('Minnie', fno, fdate) IN ANSWER FlightRes\n\
   CHOOSE 1;\n\
   SET @StayLength = '2011-05-06' - @ArrivalDay;\n\
   SELECT 'Mickey', hid, @ArrivalDay, @StayLength\n\
   INTO ANSWER HotelRes\n\
   WHERE (hid) IN (SELECT hid FROM Hotels WHERE location='LA')\n\
   AND ('Minnie', hid, @ArrivalDay, @StayLength) IN ANSWER HotelRes\n\
   CHOOSE 1;\n\
   COMMIT;"

let nosocial_transaction =
  "BEGIN TRANSACTION;\n\
   SELECT @uid, @hometown FROM User WHERE uid=36513;\n\
   SELECT @fid FROM Flight WHERE source=@hometown AND destination='FAT';\n\
   INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);\n\
   COMMIT;"

(* --- lexer --- *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT 'it''s', @x, 42 <> fno;" in
  Alcotest.(check int) "token count" 10 (Array.length toks);
  (match toks.(1) with
  | Lexer.Str_lit s, _ -> Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "expected string literal");
  match toks.(3) with
  | Lexer.Host_var v, _ -> Alcotest.(check string) "host var" "x" v
  | _ -> Alcotest.fail "expected host var"

let test_lexer_comments () =
  let toks = Lexer.tokenize "SELECT x -- a comment\nFROM t" in
  Alcotest.(check int) "comment skipped" 5 (Array.length toks)

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "'unterminated");
     Alcotest.fail "unterminated string accepted"
   with Lexer.Lex_error _ -> ());
  try
    ignore (Lexer.tokenize "a # b");
    Alcotest.fail "stray char accepted"
  with Lexer.Lex_error _ -> ()

(* --- parser --- *)

let test_parse_mickey () =
  match Parser.parse_stmt mickey_query with
  | Ast.Entangled e ->
    Alcotest.(check string) "answer relation" "Reservation" e.into;
    Alcotest.(check int) "choose" 1 e.choose;
    Alcotest.(check int) "projection arity" 3 (List.length e.eprojs);
    (match e.ewhere with
    | Ast.And (Ast.In_select (vars, sub), Ast.In_answer (post, rel)) ->
      Alcotest.(check int) "bound vars" 2 (List.length vars);
      Alcotest.(check int) "subquery from" 1 (List.length sub.from);
      Alcotest.(check int) "postcondition arity" 3 (List.length post);
      Alcotest.(check string) "postcondition relation" "Reservation" rel
    | _ -> Alcotest.fail "unexpected WHERE shape")
  | _ -> Alcotest.fail "expected entangled statement"

let test_parse_minnie_join () =
  match Parser.parse_stmt minnie_query with
  | Ast.Entangled e -> (
    match e.ewhere with
    | Ast.And (Ast.In_select (_, sub), _) ->
      Alcotest.(check int) "join width" 2 (List.length sub.from);
      let aliases = List.map snd sub.from in
      Alcotest.(check (list string)) "aliases" [ "F"; "A" ] aliases
    | _ -> Alcotest.fail "unexpected WHERE shape")
  | _ -> Alcotest.fail "expected entangled statement"

let test_parse_figure2 () =
  let p = Parser.parse_program figure2_transaction in
  (match p.timeout with
  | Some seconds ->
    Alcotest.(check (float 0.01)) "2 days" 172800.0 seconds
  | None -> Alcotest.fail "timeout missing");
  Alcotest.(check int) "statements" 3 (List.length p.body);
  match Ast.statements p with
  | [ Ast.Entangled flight; Ast.Set_var ("StayLength", _); Ast.Entangled hotel ] ->
    Alcotest.(check string) "flight rel" "FlightRes" flight.into;
    Alcotest.(check string) "hotel rel" "HotelRes" hotel.into;
    (* fdate AS @ArrivalDay host binding *)
    let binds =
      List.filter_map (fun (pr : Ast.proj) -> pr.pbind) flight.eprojs
    in
    Alcotest.(check (list string)) "flight binds" [ "ArrivalDay" ] binds
  | _ -> Alcotest.fail "unexpected statement shapes"

let test_parse_nosocial () =
  let p = Parser.parse_program nosocial_transaction in
  Alcotest.(check bool) "no timeout" true (p.timeout = None);
  match Ast.statements p with
  | [ Ast.Select s1; Ast.Select _; Ast.Insert { table; _ } ] ->
    Alcotest.(check string) "reserve" "Reserve" table;
    (* bare @uid, @hometown projections parse as host-var expressions;
       the evaluator desugars unbound ones into column bindings *)
    (match List.map (fun (pr : Ast.proj) -> pr.pexpr) s1.projs with
    | [ Ast.Host "uid"; Ast.Host "hometown" ] -> ()
    | _ -> Alcotest.fail "expected host-var projections")
  | _ -> Alcotest.fail "unexpected statement shapes"

let test_parse_script () =
  let script =
    "CREATE TABLE T (a INT, b STRING);\n\
     INSERT INTO T VALUES (1, 'x');\n\
     BEGIN TRANSACTION;\nSELECT a FROM T;\nCOMMIT;\n\
     DELETE FROM T WHERE a = 1;"
  in
  match Parser.parse_script script with
  | [ Parser.Stmt (Ast.Create_table _, _);
      Parser.Stmt (Ast.Insert _, { line = 2; col = 1 });
      Parser.Program _;
      Parser.Stmt (Ast.Delete _, { line = 6; col = 1 }) ] -> ()
  | items ->
    Alcotest.failf "unexpected script shape (%d items)" (List.length items)

let test_parse_operators_precedence () =
  (match Parser.parse_cond "a = 1 AND b = 2 OR c = 3" with
  | Ast.Or (Ast.And _, Ast.Cmp _) -> ()
  | _ -> Alcotest.fail "AND should bind tighter than OR");
  match Parser.parse_cond "NOT a = 1 AND b = 2" with
  | Ast.And (Ast.Not _, Ast.Cmp _) -> ()
  | _ -> Alcotest.fail "NOT should bind tighter than AND"

let test_parse_arith () =
  match Parser.parse_stmt "SET @x = 1 + 2 * 3" with
  | Ast.Set_var ("x", Ast.Binop (Add, Ast.Lit (Int 1), Ast.Binop (Mul, _, _))) -> ()
  | _ -> Alcotest.fail "precedence of * over +"

let test_parse_errors () =
  let expect_fail input =
    try
      ignore (Parser.parse_stmt input);
      Alcotest.failf "accepted: %s" input
    with Parser.Parse_error _ -> ()
  in
  expect_fail "SELECT";
  expect_fail "SELECT a FROM";
  expect_fail "INSERT INTO";
  expect_fail "SELECT 'x' INTO ANSWER R WHERE a = 1";
  (* missing CHOOSE *)
  expect_fail "SELECT a FROM t WHERE (a, b) IN (1, 2)";
  expect_fail "UPDATE t SET";
  expect_fail "CREATE TABLE t (a WIBBLE)"

let test_roundtrip_fixed () =
  let inputs =
    [ mickey_query;
      minnie_query;
      "SELECT a, b FROM t, u AS v WHERE t.a = v.b LIMIT 3";
      "INSERT INTO Reserve (uid, fid) VALUES (3, @fid)";
      "UPDATE t SET a = (a + 1) WHERE a < 10";
      "DELETE FROM t WHERE NOT (a = 1)";
      "SET @x = ('2011-05-06' - @d)" ]
  in
  List.iter
    (fun input ->
      let ast = Parser.parse_stmt input in
      let printed = Pretty.stmt_to_string ast in
      let ast' = Parser.parse_stmt printed in
      let printed' = Pretty.stmt_to_string ast' in
      Alcotest.(check string) ("roundtrip: " ^ input) printed printed')
    inputs

(* --- evaluator over the Figure 1 database --- *)

let date y m d = Value.date_of_ymd ~y ~m ~d

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
    [ [| Value.Int 122; date 2011 5 3; Value.Str "LA" |];
      [| Value.Int 123; date 2011 5 4; Value.Str "LA" |];
      [| Value.Int 124; date 2011 5 3; Value.Str "LA" |];
      [| Value.Int 235; date 2011 5 5; Value.Str "Paris" |] ];
  List.iter
    (fun row -> ignore (Table.insert airlines row))
    [ [| Value.Int 122; Value.Str "United" |];
      [| Value.Int 123; Value.Str "United" |];
      [| Value.Int 124; Value.Str "USAir" |];
      [| Value.Int 235; Value.Str "Delta" |] ];
  cat

let run_select cat input =
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  match Parser.parse_stmt input with
  | Ast.Select sel -> (env, Eval.select_rows access env sel)
  | _ -> Alcotest.fail "expected a SELECT"

let test_eval_simple_select () =
  let cat = figure1_catalog () in
  let _, rows = run_select cat "SELECT fno FROM Flights WHERE dest = 'LA'" in
  Alcotest.(check int) "LA flights" 3 (List.length rows);
  let fnos = List.map (fun r -> r.(0)) rows in
  Alcotest.(check bool) "contains 122" true
    (List.exists (Value.equal (Int 122)) fnos)

let test_eval_join () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat
      "SELECT F.fno FROM Flights F, Airlines A WHERE F.dest='LA' AND F.fno = \
       A.fno AND A.airline = 'United'"
  in
  let fnos = List.sort Value.compare (List.map (fun r -> r.(0)) rows) in
  Alcotest.(check (list string))
    "united LA flights" [ "122"; "123" ]
    (List.map Value.to_string fnos)

let test_eval_in_subquery () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat
      "SELECT fno FROM Airlines WHERE (fno) IN (SELECT fno FROM Flights WHERE \
       dest = 'Paris')"
  in
  Alcotest.(check int) "paris airline rows" 1 (List.length rows)

let test_eval_limit_and_binding () =
  let cat = figure1_catalog () in
  let env, rows =
    run_select cat "SELECT fno AS @f FROM Flights WHERE dest = 'LA' LIMIT 1"
  in
  Alcotest.(check int) "limited" 1 (List.length rows);
  match Hashtbl.find_opt env "f" with
  | Some (Value.Int 122) -> ()
  | Some v -> Alcotest.failf "bound wrong value %s" (Value.to_string v)
  | None -> Alcotest.fail "host var not bound"

let test_eval_empty_binds_null () =
  let cat = figure1_catalog () in
  let env, rows =
    run_select cat "SELECT fno AS @f FROM Flights WHERE dest = 'Nowhere'"
  in
  Alcotest.(check int) "empty" 0 (List.length rows);
  match Hashtbl.find_opt env "f" with
  | Some Value.Null -> ()
  | _ -> Alcotest.fail "expected Null binding on empty result"

let test_eval_insert_update_delete () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let exec input = Eval.exec_stmt access env (Parser.parse_stmt input) in
  (match exec "INSERT INTO Airlines VALUES (125, 'United')" with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "insert failed");
  (match exec "UPDATE Airlines SET airline = 'Delta' WHERE fno = 125" with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "update failed");
  (match exec "DELETE FROM Airlines WHERE airline = 'Delta'" with
  | Eval.Affected 2 -> () (* 235 and the updated 125 *)
  | Eval.Affected n -> Alcotest.failf "deleted %d" n
  | _ -> Alcotest.fail "delete failed");
  let _, rows = run_select cat "SELECT fno FROM Airlines" in
  Alcotest.(check int) "remaining airlines" 3 (List.length rows)

let test_eval_host_vars_flow () =
  (* The Appendix D NoSocial transaction shape, statement by statement. *)
  let cat = Catalog.create () in
  let user =
    Catalog.create_table cat "User"
      (Schema.make [ { name = "uid"; ty = T_int }; { name = "hometown"; ty = T_str } ])
  in
  let flight =
    Catalog.create_table cat "Flight"
      (Schema.make
         [ { name = "source"; ty = T_str };
           { name = "destination"; ty = T_str };
           { name = "fid"; ty = T_int } ])
  in
  let reserve =
    Catalog.create_table cat "Reserve"
      (Schema.make [ { name = "uid"; ty = T_int }; { name = "fid"; ty = T_int } ])
  in
  ignore (Table.insert user [| Value.Int 36513; Value.Str "ITH" |]);
  ignore (Table.insert flight [| Value.Str "ITH"; Value.Str "FAT"; Value.Int 77 |]);
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let exec input = ignore (Eval.exec_stmt access env (Parser.parse_stmt input)) in
  exec "SELECT @uid, @hometown FROM User WHERE uid=36513";
  exec "SELECT @fid FROM Flight WHERE source=@hometown AND destination='FAT'";
  exec "INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid)";
  Alcotest.(check int) "reservation made" 1 (Table.cardinal reserve);
  match Table.get reserve 0 with
  | Some row ->
    Alcotest.(check string) "uid" "36513" (Value.to_string (Tuple.get row 0));
    Alcotest.(check string) "fid" "77" (Value.to_string (Tuple.get row 1))
  | None -> Alcotest.fail "row missing"

let test_eval_index_fast_path_agrees () =
  let cat = figure1_catalog () in
  let flights = Catalog.find_exn cat "Flights" in
  let q = "SELECT fno FROM Flights WHERE dest = 'LA'" in
  let _, before = run_select cat q in
  Table.add_index flights ~positions:[ Schema.index_of (Table.schema flights) "dest" ];
  let _, after = run_select cat q in
  Alcotest.(check int) "same cardinality" (List.length before) (List.length after)

let test_eval_date_arithmetic_in_sql () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  Hashtbl.replace env "ArrivalDay" (date 2011 5 3);
  (match
     Eval.exec_stmt access env
       (Parser.parse_stmt "SET @StayLength = '2011-05-06' - @ArrivalDay")
   with
  | Eval.Affected 0 -> ()
  | _ -> Alcotest.fail "SET failed");
  match Hashtbl.find_opt env "StayLength" with
  | Some (Value.Int 3) -> ()
  | _ -> Alcotest.fail "stay length wrong"

let test_eval_errors () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let expect_fail input =
    try
      ignore (Eval.exec_stmt access env (Parser.parse_stmt input));
      Alcotest.failf "accepted: %s" input
    with Eval.Eval_error _ -> ()
  in
  expect_fail "SELECT nope FROM Flights";
  expect_fail "SELECT fno FROM NoSuchTable";
  expect_fail "SELECT @undefined_var FROM Flights";
  expect_fail "INSERT INTO Flights VALUES (1, 2)";
  expect_fail mickey_query (* entangled queries don't run classically *)

let test_eval_null_semantics () =
  let cat = Catalog.create () in
  let t =
    Catalog.create_table cat "T"
      (Schema.make [ { name = "a"; ty = T_int }; { name = "b"; ty = T_int } ])
  in
  ignore (Table.insert t [| Value.Int 1; Value.Null |]);
  ignore (Table.insert t [| Value.Int 2; Value.Int 5 |]);
  let rows input =
    match run_select cat input with
    | _, rows -> rows
  in
  (* comparisons with NULL are never true, in either direction *)
  Alcotest.(check int) "b = NULL matches nothing" 0
    (List.length (rows "SELECT a FROM T WHERE b = NULL"));
  Alcotest.(check int) "b <> 5 excludes null" 0
    (List.length (rows "SELECT a FROM T WHERE b <> 5 AND a = 1"));
  Alcotest.(check int) "between skips null" 1
    (List.length (rows "SELECT a FROM T WHERE b BETWEEN 0 AND 10"));
  (* aggregates ignore NULLs; COUNT-star does not *)
  (match rows "SELECT COUNT(*), COUNT(b), SUM(b) FROM T" with
  | [ [| Value.Int 2; Value.Int 1; Value.Int 5 |] ] -> ()
  | _ -> Alcotest.fail "null aggregation");
  match rows "SELECT MIN(b) FROM T WHERE a = 1" with
  | [ [| Value.Null |] ] -> ()
  | _ -> Alcotest.fail "min of all-null group is null"

(* --- extended SQL: aggregates, grouping, ordering --- *)

let test_eval_aggregates () =
  let cat = figure1_catalog () in
  let _, rows = run_select cat "SELECT COUNT(*) FROM Flights" in
  (match rows with
  | [ [| Value.Int 4 |] ] -> ()
  | _ -> Alcotest.fail "count(*)");
  let _, rows = run_select cat "SELECT MIN(fno), MAX(fno), SUM(fno) FROM Flights" in
  (match rows with
  | [ [| Value.Int 122; Value.Int 235; Value.Int 604 |] ] -> ()
  | _ -> Alcotest.fail "min/max/sum");
  let _, rows =
    run_select cat "SELECT COUNT(*) FROM Flights WHERE dest = 'Mars'"
  in
  match rows with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "empty group still yields one row"

let test_eval_group_by () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat
      "SELECT dest, COUNT(*) FROM Flights GROUP BY dest ORDER BY dest"
  in
  match rows with
  | [ [| Value.Str "LA"; Value.Int 3 |]; [| Value.Str "Paris"; Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "group by dest"

let test_eval_order_by_desc_limit () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat "SELECT fno FROM Flights ORDER BY fno DESC LIMIT 2"
  in
  match rows with
  | [ [| Value.Int 235 |]; [| Value.Int 124 |] ] -> ()
  | _ -> Alcotest.fail "order by desc with limit"

let test_eval_distinct () =
  let cat = figure1_catalog () in
  let _, rows = run_select cat "SELECT DISTINCT dest FROM Flights" in
  Alcotest.(check int) "two destinations" 2 (List.length rows)

let test_eval_in_list_and_between () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat "SELECT fno FROM Flights WHERE fno IN (123, 235, 999)"
  in
  Alcotest.(check int) "in list" 2 (List.length rows);
  let _, rows =
    run_select cat "SELECT fno FROM Flights WHERE fno BETWEEN 123 AND 235"
  in
  Alcotest.(check int) "between" 3 (List.length rows)

let test_eval_avg () =
  let cat = figure1_catalog () in
  let _, rows = run_select cat "SELECT AVG(fno) FROM Airlines" in
  match rows with
  | [ [| Value.Int 151 |] ] -> () (* (122+123+124+235)/4 = 151 *)
  | _ -> Alcotest.fail "avg"

let test_agg_outside_projection_rejected () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  try
    ignore
      (Eval.exec_stmt access (Eval.fresh_env ())
         (Parser.parse_stmt "DELETE FROM Flights WHERE fno = COUNT(*)"));
    Alcotest.fail "aggregate accepted in WHERE"
  with Eval.Eval_error _ -> ()

let test_order_by_multiple_keys () =
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat "SELECT fdate, fno FROM Flights ORDER BY fdate DESC, fno"
  in
  match List.map (fun r -> Value.to_string r.(1)) rows with
  | [ "235"; "123"; "122"; "124" ] -> ()
  | other -> Alcotest.failf "wrong order: %s" (String.concat "," other)

let test_correlated_subquery () =
  (* the inner query references the outer row's column explicitly *)
  let cat = figure1_catalog () in
  let _, rows =
    run_select cat
      "SELECT A.fno FROM Airlines A WHERE (A.fno) IN (SELECT fno FROM Flights \
       WHERE fno = A.fno AND dest = 'LA')"
  in
  Alcotest.(check int) "three LA airlines" 3 (List.length rows)

let test_bang_equals () =
  match Parser.parse_cond "a != 1" with
  | Ast.Cmp (Ne, _, _) -> ()
  | _ -> Alcotest.fail "!= should parse as <>"

let test_create_index_and_drop () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let exec input = Eval.exec_stmt access env (Parser.parse_stmt input) in
  (match exec "CREATE INDEX ON Flights (dest)" with
  | Eval.Created -> ()
  | _ -> Alcotest.fail "create index");
  (* indexed plan now probes instead of scanning *)
  (match Parser.parse_stmt "SELECT fno FROM Flights WHERE dest = 'LA'" with
  | Ast.Select sel ->
    Alcotest.(check string) "explain probes" "PROBE Flights ON (dest)"
      (Eval.explain access sel)
  | _ -> assert false);
  (try
     ignore (exec "CREATE INDEX ON Flights (nope)");
     Alcotest.fail "bad column accepted"
   with Eval.Eval_error _ -> ());
  (match exec "DROP TABLE Airlines" with
  | Eval.Created -> ()
  | _ -> Alcotest.fail "drop");
  try
    ignore (exec "SELECT fno FROM Airlines");
    Alcotest.fail "dropped table still queryable"
  with Eval.Eval_error _ -> ()

let test_ordered_index_range_queries () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let exec input = Eval.exec_stmt access env (Parser.parse_stmt input) in
  let q = "SELECT fno FROM Flights WHERE fno BETWEEN 123 AND 235 ORDER BY fno" in
  let before =
    match exec q with
    | Eval.Rows rows -> rows
    | _ -> Alcotest.fail "rows"
  in
  (match exec "CREATE ORDERED INDEX ON Flights (fno)" with
  | Eval.Created -> ()
  | _ -> Alcotest.fail "create ordered index");
  (* the plan switches from scan to range... *)
  (match Parser.parse_stmt q with
  | Ast.Select sel ->
    Alcotest.(check string) "explain" "RANGE Flights ON (fno)\nSORT"
      (Eval.explain access sel)
  | _ -> assert false);
  (* ...and the results are unchanged *)
  let after =
    match exec q with
    | Eval.Rows rows -> rows
    | _ -> Alcotest.fail "rows"
  in
  Alcotest.(check bool) "same rows" true (before = after);
  (* inequality probes too *)
  (match exec "SELECT fno FROM Flights WHERE fno > 124" with
  | Eval.Rows [ [| Value.Int 235 |] ] -> ()
  | _ -> Alcotest.fail "gt probe");
  try
    ignore (exec "CREATE ORDERED INDEX ON Flights (fno, fdate)");
    Alcotest.fail "multi-column ordered index accepted"
  with Parser.Parse_error _ -> ()

let test_explain_shapes () =
  let cat = figure1_catalog () in
  let access = Eval.direct_access cat in
  let plan input =
    match Parser.parse_stmt input with
    | Ast.Select sel -> Eval.explain access sel
    | _ -> assert false
  in
  Alcotest.(check string) "plain scan" "SCAN Flights"
    (plan "SELECT fno FROM Flights");
  Alcotest.(check string) "join probe"
    "SCAN Flights AS F\nPROBE Airlines ON (fno) AS A"
    (plan "SELECT F.fno FROM Flights F, Airlines A WHERE F.fno = A.fno");
  Alcotest.(check string) "agg + sort"
    "SCAN Flights\nGROUP\nAGGREGATE\nSORT"
    (plan "SELECT dest, COUNT(*) FROM Flights GROUP BY dest ORDER BY dest")

let test_extended_roundtrips () =
  List.iter
    (fun input ->
      let ast = Parser.parse_stmt input in
      let printed = Pretty.stmt_to_string ast in
      let printed' = Pretty.stmt_to_string (Parser.parse_stmt printed) in
      Alcotest.(check string) ("roundtrip: " ^ input) printed printed')
    [ "SELECT DISTINCT dest FROM Flights ORDER BY dest DESC LIMIT 3";
      "SELECT dest, COUNT(*), AVG(fno) FROM Flights GROUP BY dest";
      "SELECT fno FROM Flights WHERE fno IN (1, 2, 3)";
      "SELECT fno FROM Flights WHERE fno BETWEEN 1 AND 9 ORDER BY fno" ]

(* --- property: parser/printer round-trip on generated statements --- *)

let gen_ident =
  QCheck2.Gen.(
    map
      (fun (c, rest) -> Printf.sprintf "%c%s" c rest)
      (pair (char_range 'a' 'z')
         (string_size ~gen:(char_range 'a' 'z') (int_range 0 6))))

let gen_expr =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun i -> Ast.Lit (Value.Int i)) (int_range 0 99);
            map (fun s -> Ast.Lit (Value.Str s)) gen_ident;
            map (fun v -> Ast.Host v) gen_ident;
            map (fun c -> Ast.Col (None, c)) gen_ident ]
      else
        oneof
          [ self 0;
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ])
              (self (n / 2)) (self (n / 2)) ])

let gen_stmt =
  let open QCheck2.Gen in
  oneof
    [ map2
        (fun t vs -> Ast.Insert { table = t; columns = None; values = vs })
        gen_ident
        (list_size (int_range 1 4) gen_expr);
      map2 (fun v e -> Ast.Set_var (v, e)) gen_ident gen_expr;
      map3
        (fun t col e ->
          Ast.Update { table = t; set = [ (col, e) ]; where = Ast.True })
        gen_ident gen_ident gen_expr;
      map (fun t -> Ast.Delete { table = t; where = Ast.True }) gen_ident ]

let prop_parser_total =
  (* The parser must be total: random input either parses or raises
     Parse_error/Lex_error — never anything else, never diverges. *)
  let fragment_gen =
    QCheck2.Gen.(
      oneofl
        [ "SELECT"; "FROM"; "WHERE"; "IN"; "ANSWER"; "CHOOSE"; "AND"; "OR";
          "BEGIN"; "TRANSACTION"; "COMMIT"; "INSERT"; "INTO"; "VALUES";
          "GROUP"; "BY"; "ORDER"; "LIMIT"; "("; ")"; ","; ";"; "="; "<";
          "@x"; "'str'"; "42"; "tbl"; "col"; "*"; "-"; "BETWEEN"; "COUNT" ])
  in
  QCheck2.Test.make ~name:"parser is total on keyword soup" ~count:500
    QCheck2.Gen.(list_size (int_range 0 25) fragment_gen)
    (fun fragments ->
      let input = String.concat " " fragments in
      match Parser.parse_script input with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse round-trip" ~count:300 gen_stmt
    (fun stmt ->
      let printed = Pretty.stmt_to_string stmt in
      let reparsed = Parser.parse_stmt printed in
      Pretty.stmt_to_string reparsed = printed)

(* --- statement plans against the reference interpreter --- *)

(* An access call as the plan differential records it; reads carry the
   number of rows their sequence yielded, so laziness (LIMIT stops
   pulling) is compared too. Simulated time is charged per yielded row
   and per write, so equal traces mean equal simulated time. *)
type call =
  | Scan of string
  | Lookup of string * int list * Value.t list
  | Range of string * int * Ordered_index.bound * Ordered_index.bound
  | Insert of string * Value.t list
  | Update of string * int * Value.t list
  | Delete of string * int

let traced catalog =
  let log = ref [] in
  let base = Eval.direct_access catalog in
  let read call seq =
    let pulled = ref 0 in
    log := (call, pulled) :: !log;
    Seq.map
      (fun r ->
        incr pulled;
        r)
      seq
  in
  let write call = log := (call, ref 0) :: !log in
  let access =
    {
      base with
      scan = (fun t -> read (Scan t) (base.scan t));
      lookup =
        (fun t ~positions key ->
          let seq = base.lookup t ~positions key in
          read (Lookup (t, positions, key)) seq);
      range =
        (fun t ~position ~lo ~hi ->
          let seq = base.range t ~position ~lo ~hi in
          read (Range (t, position, lo, hi)) seq);
      insert =
        (fun t row ->
          write (Insert (t, Array.to_list row));
          base.insert t row);
      update =
        (fun t id row ->
          write (Update (t, id, Array.to_list row));
          base.update t id row);
      delete =
        (fun t id ->
          write (Delete (t, id));
          base.delete t id);
    }
  in
  let drain () =
    let calls = List.rev_map (fun (c, n) -> (c, !n)) !log in
    log := [];
    calls
  in
  (access, drain)

let pp_call = function
  | Scan t -> "scan " ^ t
  | Lookup (t, ps, k) ->
    Printf.sprintf "lookup %s [%s] (%s)" t
      (String.concat "," (List.map string_of_int ps))
      (String.concat "," (List.map Value.to_string k))
  | Range (t, p, _, _) -> Printf.sprintf "range %s %d" t p
  | Insert (t, row) -> Printf.sprintf "insert %s (%s)" t (String.concat "," (List.map Value.to_string row))
  | Update (t, id, _) -> Printf.sprintf "update %s %d" t id
  | Delete (t, id) -> Printf.sprintf "delete %s %d" t id

let describe_outcome = function
  | Ok (Eval.Rows rows) ->
    "rows "
    ^ String.concat "; "
        (List.map
           (fun r -> String.concat "," (List.map Value.to_string (Array.to_list r)))
           rows)
  | Ok (Eval.Affected n) -> Printf.sprintf "affected %d" n
  | Ok Eval.Created -> "created"
  | Error msg -> "error " ^ msg

let env_bindings env =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, Value.to_string v) :: acc) env [])

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* One side of the differential: a catalog, its traced access and a
   host environment. *)
type side = {
  s_access : Eval.access;
  s_drain : unit -> (call * int) list;
  s_env : Eval.env;
}

let side catalog env =
  let s_access, s_drain = traced catalog in
  { s_access; s_drain; s_env = env }

(* Run [f] on the plan side and [g] on the reference side; describe the
   first difference in result, trace, host bindings or ?var lookups. *)
let differ what ~plan ~reference describe f g =
  let by_plan = attempt (fun () -> f plan) in
  let by_reference = attempt (fun () -> g reference) in
  let pt = plan.s_drain () and rt = reference.s_drain () in
  let trace t = String.concat " | " (List.map (fun (c, n) -> Printf.sprintf "%s ->%d" (pp_call c) n) t) in
  if describe by_plan <> describe by_reference then
    Some
      (Printf.sprintf "%s: plan %s, reference %s" what (describe by_plan)
         (describe by_reference))
  else if pt <> rt then
    Some (Printf.sprintf "%s: trace\n  plan      %s\n  reference %s" what (trace pt) (trace rt))
  else if env_bindings plan.s_env <> env_bindings reference.s_env then
    Some (what ^ ": host bindings differ")
  else None

let describe_rows = function
  | Ok rows -> describe_outcome (Ok (Eval.Rows rows))
  | Error msg -> "error " ^ msg

let describe_value = function
  | Ok v -> Value.to_string v
  | Error msg -> "error " ^ msg

let describe_bool = function
  | Ok b -> string_of_bool b
  | Error msg -> "error " ^ msg

(* A valuation that answers [x] and [zz] and records every name it is
   asked for: the entangled engine's binder sharing keys on whether a
   subquery consulted it at all. *)
let recording_var () =
  let asked = ref [] in
  let var name =
    asked := name :: !asked;
    match name with
    | "x" -> Some (Value.Int 1)
    | "zz" -> Some (Value.Int 2)
    | _ -> None
  in
  (var, asked)

(* The checks for one statement: run as a statement, and (for SELECTs
   and conditions) as the entangled engine's correlated fragments. *)
let check_stmt ~plan ~reference (stmt : Ast.stmt) =
  let text = Pretty.stmt_to_string stmt in
  let first =
    differ text ~plan ~reference describe_outcome
      (fun s -> Eval.exec_stmt s.s_access s.s_env stmt)
      (fun s -> Reference.Sql.exec_stmt s.s_access s.s_env stmt)
  in
  let correlated () =
    let fragments =
      match stmt with
      | Select sel ->
        [ (fun () ->
            let pv, pasked = recording_var () and rv, rasked = recording_var () in
            match
              differ (text ^ " (correlated)") ~plan ~reference describe_rows
                (fun s -> Eval.correlated_select s.s_access s.s_env sel ~var:pv)
                (fun s -> Reference.Sql.select_rows_correlated ~var:rv s.s_access s.s_env sel)
            with
            | Some d -> Some d
            | None ->
              if !pasked <> !rasked then Some (text ^ ": ?var consulted differently") else None);
          (fun () ->
            let pv, _ = recording_var () and rv, _ = recording_var () in
            differ (text ^ " (WHERE as a filter)") ~plan ~reference describe_bool
              (fun s -> Eval.correlated_cond s.s_access s.s_env sel.where ~var:pv)
              (fun s -> Reference.Sql.eval_cond ~var:rv s.s_access s.s_env [] sel.where)) ]
        @ List.map
            (fun (p : Ast.proj) () ->
              let pv, _ = recording_var () and rv, _ = recording_var () in
              differ (text ^ " (projection as an expression)") ~plan ~reference describe_value
                (fun s -> Eval.correlated_expr s.s_access s.s_env p.pexpr ~var:pv)
                (fun s -> Reference.Sql.eval_expr ~var:rv s.s_access s.s_env [] p.pexpr))
            sel.projs
      | _ -> []
    in
    List.find_map (fun f -> f ()) fragments
  in
  match first with
  | Some d -> Some d
  | None -> correlated ()

(* The generated database: T and U share columns [a] and [c], so
   unqualified names shadow across scopes. *)
let diff_catalog (t_rows, u_rows) =
  let cat = Catalog.create () in
  let t =
    Catalog.create_table cat "T"
      (Schema.make
         [ { name = "a"; ty = T_int }; { name = "b"; ty = T_int }; { name = "c"; ty = T_str } ])
  in
  let u =
    Catalog.create_table cat "U"
      (Schema.make
         [ { name = "a"; ty = T_int }; { name = "d"; ty = T_int }; { name = "c"; ty = T_str } ])
  in
  List.iter (fun row -> ignore (Table.insert t row)) t_rows;
  List.iter (fun row -> ignore (Table.insert u row)) u_rows;
  cat

let diff_env () =
  let env = Eval.fresh_env () in
  Hashtbl.replace env "h1" (Value.Int 1);
  Hashtbl.replace env "c" (Value.Str "x");
  env

let gen_small_value =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Value.Int i) (int_range 0 3));
        (1, return Value.Null) ])

let gen_rows =
  QCheck2.Gen.(
    list_size (int_range 0 5)
      (map3
         (fun x y c -> [| x; y; Value.Str c |])
         gen_small_value gen_small_value (oneofl [ "x"; "y" ])))

let ddl_choices =
  [ "CREATE INDEX ON T (a)";
    "CREATE ORDERED INDEX ON T (b)";
    "CREATE ORDERED INDEX ON U (d)";
    "CREATE INDEX ON U (a, d)";
    "CREATE ORDERED INDEX ON U (a)" ]

let columns_of = function
  | "T" -> [ "a"; "b"; "c" ]
  | "U" -> [ "a"; "d"; "c" ]
  | _ -> []

(* Mostly columns of the tables in scope; now and then one of another
   table, or [zz]/[x], which exist nowhere and fall through to [?var]
   (or fail without one). *)
let gen_column scope =
  let in_scope = List.concat_map (fun (table, _) -> columns_of table) scope in
  QCheck2.Gen.(
    frequency
      [ ((if in_scope = [] then 0 else 10), oneofl (if in_scope = [] then [ "a" ] else in_scope));
        (2, oneofl [ "a"; "b"; "c"; "d" ]);
        (1, oneofl [ "zz"; "x" ]) ])

let diff_hosts = [ "h1"; "h2"; "a"; "c"; "b" ]

(* Expressions over the FROM tables in scope, as (table, alias). *)
let gen_diff_expr scope =
  let open QCheck2.Gen in
  let qualified =
    let* table, alias =
      if scope = [] then return ("", "q")
      else frequency [ (8, oneofl scope); (1, return ("", "q")) ]
    in
    map (fun c -> Ast.Col (Some alias, c)) (gen_column [ (table, alias) ])
  in
  let leaf =
    frequency
      [ (4, map (fun c -> Ast.Col (None, c)) (gen_column scope));
        ((if scope = [] then 0 else 2), qualified);
        (3, map (fun i -> Ast.Lit (Value.Int i)) (int_range 0 3));
        (1, map (fun s -> Ast.Lit (Value.Str s)) (oneofl [ "x"; "y" ]));
        (1, return (Ast.Lit Value.Null));
        (1, map (fun h -> Ast.Host h) (oneofl diff_hosts)) ]
  in
  frequency
    [ (6, leaf);
      (1, map3 (fun op a b -> Ast.Binop (op, a, b)) (oneofl [ Ast.Add; Ast.Sub ]) leaf leaf) ]

let gen_cmp = QCheck2.Gen.oneofl [ Ast.Eq; Ast.Eq; Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let gen_table_ref =
  QCheck2.Gen.(
    frequency
      [ (12, oneofl [ ("T", "T"); ("U", "U"); ("T", "t2"); ("U", "u2") ]);
        (1, return ("Nope", "Nope")) ])

let gen_from =
  let open QCheck2.Gen in
  frequency
    [ (1, return []);
      (5, map (fun t -> [ t ]) gen_table_ref);
      (3, map2 (fun a b -> [ a; b ]) gen_table_ref gen_table_ref) ]

let rec gen_diff_cond depth scope =
  let open QCheck2.Gen in
  let expr = gen_diff_expr scope in
  let base =
    [ (5, map3 (fun op a b -> Ast.Cmp (op, a, b)) gen_cmp expr expr);
      (1, return Ast.True);
      (1, map2 (fun e vs -> Ast.In_list (e, vs)) expr (list_size (int_range 1 3) expr));
      (1, map3 (fun e lo hi -> Ast.Between (e, lo, hi)) expr expr expr) ]
  in
  if depth <= 0 then frequency base
  else
    let sub = gen_diff_cond (depth - 1) scope in
    frequency
      (base
      @ [ (4, map2 (fun a b -> Ast.And (a, b)) sub sub);
          (1, map2 (fun a b -> Ast.Or (a, b)) sub sub);
          (1, map (fun a -> Ast.Not a) sub);
          (2,
            (* a correlated subquery: its WHERE sees the outer aliases too *)
            let* from = map (fun t -> [ t ]) gen_table_ref in
            let inner = scope @ from in
            let* proj = gen_diff_expr inner in
            let* where = gen_diff_cond 0 inner in
            let* needle = expr in
            return
              (Ast.In_select
                 ( [ needle ],
                   { Ast.distinct = false; projs = [ { pexpr = proj; pbind = None } ];
                     from; where; group_by = []; order_by = []; limit = None } ))) ])

let gen_diff_select =
  let open QCheck2.Gen in
  let* from = gen_from in
  let expr = gen_diff_expr from in
  let agg =
    map2 (fun fn arg -> Ast.Agg (fn, arg))
      (oneofl [ Ast.Count; Ast.Sum; Ast.Min; Ast.Max; Ast.Avg ])
      (option expr)
  in
  let proj =
    frequency
      [ (5, map (fun e -> { Ast.pexpr = e; pbind = None }) expr);
        (1, map2 (fun e v -> { Ast.pexpr = e; pbind = Some v }) expr (oneofl [ "h2"; "out" ]));
        (* bare @v: the Appendix D shorthand when unbound *)
        (1, map (fun h -> { Ast.pexpr = Ast.Host h; pbind = None }) (oneofl diff_hosts));
        (1, map (fun e -> { Ast.pexpr = e; pbind = None }) agg) ]
  in
  let* projs = list_size (int_range 1 3) proj in
  let* where = gen_diff_cond 2 from in
  let* distinct = frequency [ (4, return false); (1, return true) ] in
  let* group_by = frequency [ (4, return []); (1, map (fun e -> [ e ]) expr) ] in
  let* order_by =
    frequency
      [ (3, return []);
        (1, list_size (int_range 1 2) (pair expr (oneofl [ Ast.Asc; Ast.Desc ]))) ]
  in
  let* limit = frequency [ (3, return None); (1, map Option.some (int_range 0 3)) ] in
  return { Ast.distinct; projs; from; where; group_by; order_by; limit }

let gen_diff_stmt =
  let open QCheck2.Gen in
  let table = frequency [ (8, oneofl [ "T"; "U" ]); (1, return "Nope") ] in
  frequency
    [ (6, map (fun s -> Ast.Select s) gen_diff_select);
      (1,
        let* table = table in
        let* columns =
          oneofl [ None; Some [ "a"; "c" ]; Some [ "c"; "a"; "zz" ]; Some [ "a" ] ]
        in
        let* values = list_size (int_range 1 3) (gen_diff_expr []) in
        return (Ast.Insert { table; columns; values }));
      (1,
        let* table = table in
        let* set =
          list_size (int_range 1 2)
            (pair (gen_column [ (table, table) ]) (gen_diff_expr [ (table, table) ]))
        in
        let* where = gen_diff_cond 1 [ (table, table) ] in
        return (Ast.Update { table; set; where }));
      (1,
        let* table = table in
        let* where = gen_diff_cond 1 [ (table, table) ] in
        return (Ast.Delete { table; where }));
      (1, map (fun e -> Ast.Set_var ("h2", e)) (gen_diff_expr [])) ]

(* The same statement with every integer literal moved: it has the
   same shape, so it runs the cached plan with other parameters. *)
let rec shift_expr (e : Ast.expr) : Ast.expr =
  match e with
  | Lit (Int i) -> Lit (Int ((i + 1) mod 4))
  | Lit _ | Col _ | Host _ -> e
  | Binop (op, a, b) -> Binop (op, shift_expr a, shift_expr b)
  | Agg (fn, arg) -> Agg (fn, Option.map shift_expr arg)

and shift_cond (c : Ast.cond) : Ast.cond =
  match c with
  | True -> c
  | Cmp (op, a, b) -> Cmp (op, shift_expr a, shift_expr b)
  | And (a, b) -> And (shift_cond a, shift_cond b)
  | Or (a, b) -> Or (shift_cond a, shift_cond b)
  | Not a -> Not (shift_cond a)
  | In_select (es, sub) -> In_select (List.map shift_expr es, shift_select sub)
  | In_list (e, vs) -> In_list (shift_expr e, List.map shift_expr vs)
  | Between (e, lo, hi) -> Between (shift_expr e, shift_expr lo, shift_expr hi)
  | In_answer (es, r) -> In_answer (List.map shift_expr es, r)

and shift_select (s : Ast.select) =
  { s with
    projs = List.map (fun (p : Ast.proj) -> { p with pexpr = shift_expr p.pexpr }) s.projs;
    where = shift_cond s.where;
    group_by = List.map shift_expr s.group_by;
    order_by = List.map (fun (e, d) -> (shift_expr e, d)) s.order_by }

let shift_stmt (stmt : Ast.stmt) : Ast.stmt =
  match stmt with
  | Select s -> Select (shift_select s)
  | Insert i -> Insert { i with values = List.map shift_expr i.values }
  | Update u ->
    Update { u with set = List.map (fun (c, e) -> (c, shift_expr e)) u.set; where = shift_cond u.where }
  | Delete d -> Delete { d with where = shift_cond d.where }
  | Set_var (v, e) -> Set_var (v, shift_expr e)
  | stmt -> stmt

let gen_diff_case =
  QCheck2.Gen.(
    quad (pair gen_rows gen_rows)
      (list_size (int_range 0 3) (oneofl ddl_choices))
      (list_size (int_range 1 5) gen_diff_stmt)
      bool)

let print_diff_case ((t_rows, u_rows), ddl, stmts, _) =
  Printf.sprintf "T: %d rows, U: %d rows\n%s\n%s" (List.length t_rows) (List.length u_rows)
    (String.concat ";\n" ddl)
    (String.concat ";\n" (List.map Pretty.stmt_to_string stmts))

(* Run a script on both sides, each statement once as generated and
   once with its literals moved; fail on the first difference. *)
let run_differential ~plan ~reference stmts =
  List.iter
    (fun stmt ->
      List.iter
        (fun stmt ->
          match check_stmt ~plan ~reference stmt with
          | Some d -> QCheck2.Test.fail_report d
          | None -> ())
        [ stmt; shift_stmt stmt ])
    stmts

let prop_plan_matches_reference =
  QCheck2.Test.make ~name:"plans match the reference interpreter" ~count:500
    ~print:print_diff_case gen_diff_case (fun (rows, ddl, stmts, bind_h2) ->
      let make () =
        let cat = diff_catalog rows in
        let access = Eval.direct_access cat in
        List.iter (fun d -> ignore (Eval.exec_stmt access (Eval.fresh_env ()) (Parser.parse_stmt d))) ddl;
        let env = diff_env () in
        if bind_h2 then Hashtbl.replace env "h2" (Value.Int 2);
        side cat env
      in
      run_differential ~plan:(make ()) ~reference:(make ()) stmts;
      true)

(* Programs statement by statement over two identical catalogs. An
   entangled query's binder subqueries run as the grounding engine runs
   them, under an empty valuation; its host bindings are then set to
   Null on both sides. *)
let programs_match_reference (cat_a, cat_b) programs =
  List.iter
    (fun (program : Ast.program) ->
      let plan = side cat_a (Eval.fresh_env ())
      and reference = side cat_b (Eval.fresh_env ()) in
      List.iter
        (fun ((stmt : Ast.stmt), _) ->
          let result =
            match stmt with
            | Entangled e ->
              let rec binders (c : Ast.cond) =
                match c with
                | And (a, b) -> binders a @ binders b
                | In_select (_, sub) -> [ sub ]
                | _ -> []
              in
              let d =
                List.find_map
                  (fun sub ->
                    differ (Pretty.stmt_to_string stmt) ~plan ~reference describe_rows
                      (fun s -> Eval.correlated_select s.s_access s.s_env sub ~var:(fun _ -> None))
                      (fun s ->
                        Reference.Sql.select_rows_correlated ~var:(fun _ -> None) s.s_access
                          s.s_env sub))
                  (binders e.ewhere)
              in
              List.iter
                (fun (p : Ast.proj) ->
                  Option.iter
                    (fun v ->
                      Hashtbl.replace plan.s_env v Value.Null;
                      Hashtbl.replace reference.s_env v Value.Null)
                    p.pbind)
                e.eprojs;
              d
            | stmt -> check_stmt ~plan ~reference stmt
          in
          Option.iter Alcotest.fail result)
        program.body)
    programs

(* The generated workload programs (Appendix D's three transaction
   kinds) with this file's NoSocial transaction, over two identical
   Appendix D worlds; [Gen]'s travel programs with this file's Figure 2
   transaction, over two copies of [Gen]'s travel fixture. *)
let test_plan_matches_reference_on_workloads () =
  let world () = Ent_workload.Travel.build ~seed:3 ~users:40 ~cities:5 () in
  let wa = world () and wb = world () in
  let catalog (w : Ent_workload.Travel.t) = Ent_core.Manager.catalog w.manager in
  programs_match_reference
    (catalog wa, catalog wb)
    (List.concat_map
       (fun kind ->
         List.map
           (fun (p : Ent_core.Program.t) -> p.ast)
           (Ent_workload.Gen.batch wa ~transactional:true kind ~n:16 ~tag_base:0))
       Ent_workload.Gen.[ No_social; Social; Entangled ]
    @ [ Parser.parse_program nosocial_transaction ]);
  let travel () = Ent_core.Manager.catalog (Gen.travel_manager ()) in
  programs_match_reference
    (travel (), travel ())
    (List.map Parser.parse_program
       [ Gen.flight_program "Mickey" "Minnie";
         Gen.travel_program "Minnie" "Mickey";
         Gen.minnie_aborts_program;
         figure2_transaction ])

(* DDL through the catalog drops the plans it owns: the same statement
   switches from a scan to a range probe once an ordered index exists,
   in the trace and in EXPLAIN, and a table re-created with its columns
   reordered is read by position of the new schema. *)
let test_plan_ddl_invalidation () =
  let cat = figure1_catalog () in
  let access, drain = traced cat in
  let env = Eval.fresh_env () in
  let exec input = Eval.exec_stmt access env (Parser.parse_stmt input) in
  let q = "SELECT fno FROM Flights WHERE fno BETWEEN 123 AND 235" in
  let explain () =
    match Parser.parse_stmt q with
    | Ast.Select sel -> Eval.explain access sel
    | _ -> assert false
  in
  let fnos = function
    | Eval.Rows rows -> List.map (fun r -> Value.to_string r.(0)) rows
    | _ -> Alcotest.fail "rows"
  in
  Alcotest.(check string) "explain before" "SCAN Flights" (explain ());
  let before = fnos (exec q) in
  Alcotest.(check (list string)) "trace before" [ "scan Flights ->4" ]
    (List.map (fun (c, n) -> Printf.sprintf "%s ->%d" (pp_call c) n) (drain ()));
  ignore (exec "CREATE ORDERED INDEX ON Flights (fno)");
  Alcotest.(check string) "explain after" "RANGE Flights ON (fno)" (explain ());
  let after = fnos (exec q) in
  (match drain () with
  | [ (Range ("Flights", 0, Inclusive (Int 123), Inclusive (Int 235)), 3) ] -> ()
  | calls ->
    Alcotest.failf "trace after: %s"
      (String.concat " | " (List.map (fun (c, _) -> pp_call c) calls)));
  Alcotest.(check (list string)) "same rows" before after;
  let xy () =
    match exec "SELECT x, y FROM R" with
    | Eval.Rows rows ->
      List.map (fun r -> Value.to_string r.(0) ^ "/" ^ Value.to_string r.(1)) rows
    | _ -> Alcotest.fail "rows"
  in
  ignore (exec "CREATE TABLE R (x INT, y STRING)");
  ignore (exec "INSERT INTO R VALUES (1, 'a')");
  Alcotest.(check (list string)) "x, y" [ "1/a" ] (xy ());
  ignore (exec "DROP TABLE R");
  ignore (exec "CREATE TABLE R (y STRING, x INT)");
  ignore (exec "INSERT INTO R VALUES ('b', 2)");
  Alcotest.(check (list string)) "x, y after reordering" [ "2/b" ] (xy ())

(* Minor words allocated per row by a one-column full scan, measured
   once the plan is cached. *)
let scan_words_per_row run n =
  let cat = Catalog.create () in
  let t = Catalog.create_table cat "S" (Schema.make [ { name = "v"; ty = T_int } ]) in
  for i = 1 to n do
    ignore (Table.insert t [| Value.Int i |])
  done;
  let sel =
    match Parser.parse_stmt "SELECT v FROM S" with
    | Ast.Select sel -> sel
    | _ -> assert false
  in
  let access = Eval.direct_access cat in
  let go () = ignore (run access sel) in
  go ();
  let before = Gc.minor_words () in
  go ();
  (Gc.minor_words () -. before) /. float_of_int n

(* Per-row allocation of a scan is flat in table size: nothing in the
   plan's row loop grows with the table. On a 2-vCPU x86-64 VM with
   OCaml 5.1 the plan measured 39.1 minor words a row at 2 000 rows and
   39.0 at 32 000, 31 of them the table's own materialized row
   sequence; the reference interpreter, which rebuilds the binding list
   and resolves the column by name for every row, measured 74.0. *)
let test_plan_scan_allocation () =
  let plan access sel = Eval.select_rows access (Eval.fresh_env ()) sel in
  let reference access sel = Reference.Sql.select_rows access (Eval.fresh_env ()) sel in
  let small = scan_words_per_row plan 2_000 and large = scan_words_per_row plan 32_000 in
  let interpreted = scan_words_per_row reference 32_000 in
  if Float.abs (large -. small) > 1.0 then
    Alcotest.failf "words per row grow with the table: %.2f at 2k rows, %.2f at 32k" small large;
  if large >= interpreted then
    Alcotest.failf "plan allocates %.2f words a row, the interpreter %.2f" large interpreted

let () =
  Alcotest.run "sql"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors ] );
      ( "parser",
        [ Alcotest.test_case "mickey entangled" `Quick test_parse_mickey;
          Alcotest.test_case "minnie join" `Quick test_parse_minnie_join;
          Alcotest.test_case "figure 2 transaction" `Quick test_parse_figure2;
          Alcotest.test_case "appendix D nosocial" `Quick test_parse_nosocial;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "precedence" `Quick test_parse_operators_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "round-trips" `Quick test_roundtrip_fixed ] );
      ( "eval",
        [ Alcotest.test_case "simple select" `Quick test_eval_simple_select;
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "IN subquery" `Quick test_eval_in_subquery;
          Alcotest.test_case "limit + binding" `Quick test_eval_limit_and_binding;
          Alcotest.test_case "empty binds null" `Quick test_eval_empty_binds_null;
          Alcotest.test_case "write statements" `Quick test_eval_insert_update_delete;
          Alcotest.test_case "host var flow" `Quick test_eval_host_vars_flow;
          Alcotest.test_case "index fast path" `Quick test_eval_index_fast_path_agrees;
          Alcotest.test_case "date arithmetic" `Quick test_eval_date_arithmetic_in_sql;
          Alcotest.test_case "errors" `Quick test_eval_errors ] );
      ( "extended-sql",
        [ Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "group by" `Quick test_eval_group_by;
          Alcotest.test_case "order by desc + limit" `Quick test_eval_order_by_desc_limit;
          Alcotest.test_case "distinct" `Quick test_eval_distinct;
          Alcotest.test_case "in list / between" `Quick test_eval_in_list_and_between;
          Alcotest.test_case "avg" `Quick test_eval_avg;
          Alcotest.test_case "aggregate misuse" `Quick test_agg_outside_projection_rejected;
          Alcotest.test_case "order by multiple keys" `Quick test_order_by_multiple_keys;
          Alcotest.test_case "correlated subquery" `Quick test_correlated_subquery;
          Alcotest.test_case "bang equals" `Quick test_bang_equals;
          Alcotest.test_case "create index / drop" `Quick test_create_index_and_drop;
          Alcotest.test_case "ordered index ranges" `Quick test_ordered_index_range_queries;
          Alcotest.test_case "explain" `Quick test_explain_shapes;
          Alcotest.test_case "round-trips" `Quick test_extended_roundtrips ] );
      ( "plans",
        [ Alcotest.test_case "workload programs match the reference" `Quick
            test_plan_matches_reference_on_workloads;
          Alcotest.test_case "DDL drops cached plans" `Quick test_plan_ddl_invalidation;
          Alcotest.test_case "scan allocation is flat per row" `Quick test_plan_scan_allocation;
          Gen.to_alcotest prop_plan_matches_reference ] );
      ( "properties",
        [ Gen.to_alcotest prop_print_parse_roundtrip;
          Gen.to_alcotest prop_parser_total ] ) ]

(* Tests for the entangled query engine: IR translation, grounding
   (Figure 7), coordination (Figure 1), the Appendix B failure
   classification, and complex coordination structures. *)

open Ent_storage
open Ent_sql
open Ent_entangle

let may3 = Gen.may3

(* The Figure 1 database and the mickey/minnie fixtures are shared
   across suites (test/gen.ml). *)
let figure1_catalog = Gen.figure1_catalog
let parse_entangled = Gen.parse_entangled
let translate = Gen.translate
let mickey_src = Gen.mickey_src
let minnie_src = Gen.minnie_src
let ground = Gen.ground

(* --- translation --- *)

let test_translate_mickey () =
  let q = translate mickey_src in
  Alcotest.(check int) "one head atom" 1 (List.length q.head);
  Alcotest.(check int) "one postcondition" 1 (List.length q.post);
  let head = List.hd q.head in
  Alcotest.(check string) "head relation" "R" head.rel;
  (match head.args with
  | [ Ir.Const (Value.Str "Mickey"); Ir.Var "fno"; Ir.Var "fdate" ] -> ()
  | _ -> Alcotest.fail "head args wrong");
  Alcotest.(check (list string)) "answer vars" [ "fdate"; "fno" ] (Ir.answer_vars q)

let test_translate_host_resolution () =
  let env = Eval.fresh_env () in
  Hashtbl.replace env "ArrivalDay" may3;
  let q =
    Translate.of_ast ~env
      (parse_entangled
         "SELECT 'Mickey', hid, @ArrivalDay INTO ANSWER H WHERE (hid) IN \
          (SELECT hid FROM Hotels WHERE location='LA') AND ('Minnie', hid, \
          @ArrivalDay) IN ANSWER H CHOOSE 1")
  in
  match (List.hd q.head).args with
  | [ _; Ir.Var "hid"; Ir.Const d ] ->
    Alcotest.(check string) "resolved date" "2011-05-03" (Value.to_string d)
  | _ -> Alcotest.fail "host var not resolved into constant"

let test_translate_binds () =
  let q =
    translate
      "SELECT 'Mickey', fno, fdate AS @ArrivalDay INTO ANSWER R WHERE (fno, \
       fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA') AND \
       ('Minnie', fno, fdate) IN ANSWER R CHOOSE 1"
  in
  Alcotest.(check (list (pair string int))) "binding positions"
    [ ("ArrivalDay", 2) ] q.binds

let test_translate_unsafe_unbound_var () =
  try
    ignore
      (translate
         "SELECT 'Mickey', fno INTO ANSWER R WHERE ('Minnie', fno) IN ANSWER \
          R CHOOSE 1");
    Alcotest.fail "range restriction violation accepted"
  with Ir.Unsafe _ -> ()

let test_translate_rejects_in_answer_under_or () =
  try
    ignore
      (translate
         "SELECT 'M', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
          Flights) AND (('X', fno) IN ANSWER R OR fno = 1) CHOOSE 1");
    Alcotest.fail "IN ANSWER under OR accepted"
  with Translate.Translate_error _ -> ()

let test_translate_unbound_host () =
  try
    ignore
      (translate
         "SELECT 'M', @nope, fno INTO ANSWER R WHERE (fno) IN (SELECT fno \
          FROM Flights) AND ('X', fno) IN ANSWER R CHOOSE 1");
    Alcotest.fail "unbound host accepted"
  with Translate.Translate_error _ -> ()

(* --- grounding (Figure 7) --- *)

let test_ground_mickey () =
  let cat = figure1_catalog () in
  let gs = ground cat (translate mickey_src) in
  (* Figure 7(b): groundings 1-3 for Mickey (flights 122, 123, 124). *)
  Alcotest.(check int) "three groundings" 3 (List.length gs);
  let heads = List.map (fun (g : Ground.grounding) -> List.hd g.g_head) gs in
  let fno_of (_, values) = List.nth values 1 in
  Alcotest.(check (list string)) "flights in scan order"
    [ "122"; "123"; "124" ]
    (List.map (fun h -> Value.to_string (fno_of h)) heads)

let test_ground_minnie_join () =
  let cat = figure1_catalog () in
  let gs = ground cat (translate minnie_src) in
  (* Figure 7(b): groundings 4-5 for Minnie (United flights 122, 123). *)
  Alcotest.(check int) "two groundings" 2 (List.length gs)

let test_ground_filter_condition () =
  let cat = figure1_catalog () in
  let gs =
    ground cat
      (translate
         ("SELECT 'M', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
           Flights WHERE dest='LA') AND fno > 122 AND ('X', fno) IN ANSWER R \
           CHOOSE 1"))
  in
  Alcotest.(check int) "filtered" 2 (List.length gs)

let test_ground_dedup () =
  let cat = figure1_catalog () in
  (* projecting only fdate: May 3 appears twice in LA flights *)
  let gs =
    ground cat
      (translate
         "SELECT 'M', fdate INTO ANSWER R WHERE (fno, fdate) IN (SELECT fno, \
          fdate FROM Flights WHERE dest='LA') AND ('X', fdate) IN ANSWER R \
          CHOOSE 1")
  in
  Alcotest.(check int) "deduplicated" 2 (List.length gs)

(* Entangled-T's [Meet(u, tag, city)] groundings share their relation
   names and leading values, which is all [Hashtbl.hash] reads of
   them; the dedup table must still tell them apart, and deduplicate
   exactly as a first-seen list scan does. *)
let test_ground_dedup_hash () =
  let cities =
    [ "ATL"; "BOS"; "CAT"; "DEN"; "FAT"; "ITH"; "JFK"; "LAX"; "MIA"; "ORD";
      "PHF"; "SFO" ]
  in
  let atom me =
    { Ir.rel = "Meet"; args = [ Ir.Const (Value.Int me); Ir.Const (Value.Int 3); Ir.Var "dst" ] }
  in
  let query =
    { Ir.head = [ atom 36513 ]; post = [ atom 45747 ]; body = Ast.True; binds = []; choose = 1 }
  in
  let valuation city = Ground.Valuation.singleton "dst" (Value.Str city) in
  (* every city twice, interleaved, so the dedup has work to do *)
  let valuations = List.map valuation (cities @ List.rev cities) in
  let gs = Ground.groundings_of query valuations in
  let hashes = List.sort_uniq Int.compare (List.map Ground.grounding_hash gs) in
  Alcotest.(check int) "12 groundings" 12 (List.length gs);
  Alcotest.(check int) "12 distinct hashes" 12 (List.length hashes);
  let first_seen =
    List.fold_left
      (fun acc (g : Ground.grounding) -> if List.mem g acc then acc else acc @ [ g ])
      []
      (List.map
         (fun city ->
           { Ground.g_head = [ ("Meet", [ Value.Int 36513; Value.Int 3; Value.Str city ]) ];
             g_post = [ ("Meet", [ Value.Int 45747; Value.Int 3; Value.Str city ]) ] })
         (cities @ List.rev cities))
  in
  Alcotest.(check bool) "first-seen order, byte for byte" true
    (List.map (Format.asprintf "%a" Ground.pp_grounding) gs
     = List.map (Format.asprintf "%a" Ground.pp_grounding) first_seen)

let test_ground_empty () =
  let cat = figure1_catalog () in
  let gs =
    ground cat
      (translate
         "SELECT 'M', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
          Flights WHERE dest='Nowhere') AND ('X', fno) IN ANSWER R CHOOSE 1")
  in
  Alcotest.(check int) "no groundings" 0 (List.length gs)

let test_ground_limit () =
  let cat = figure1_catalog () in
  try
    ignore (Ground.compute ~limit:2 ~access:(Eval.direct_access cat)
              ~env:(Eval.fresh_env ()) (translate mickey_src));
    Alcotest.fail "limit not enforced"
  with Ground.Ground_error _ -> ()

(* --- property: binder reuse --- *)

let obs_count name = Ent_obs.Obs.counter_value (Ent_obs.Obs.counter name)

(* The valuation enumeration as it reads in Appendix A: every binder
   subquery runs once per valuation. [Ground.valuations] runs a binder
   that never reads the valuation only once; it must not be told
   apart from this. *)
let reference_valuations ~limit ~access ~env (body : Ast.cond) =
  let rec conjuncts (c : Ast.cond) =
    match c with
    | And (a, b) -> conjuncts a @ conjuncts b
    | True -> []
    | c -> [ c ]
  in
  let binders, filters =
    List.partition
      (function Ast.In_select _ -> true | _ -> false)
      (conjuncts body)
  in
  let var valuation x = Ground.Valuation.find_opt x valuation in
  let unify valuation exprs row =
    List.fold_left2
      (fun acc (e : Ast.expr) value ->
        match acc, e with
        | None, _ -> None
        | Some v, Col (None, x) -> (
          match Ground.Valuation.find_opt x v with
          | Some bound -> if Value.equal bound value then acc else None
          | None -> Some (Ground.Valuation.add x value v))
        | Some v, _ -> (
          match Reference.Sql.eval_expr ~var:(var v) access env [] e with
          | w when Value.equal w value -> acc
          | _ | (exception Eval.Eval_error _) -> None))
      (Some valuation) exprs row
  in
  let explored = ref 0 in
  let step valuations (c : Ast.cond) =
    match c with
    | In_select (exprs, sub) ->
      List.concat_map
        (fun valuation ->
          Reference.Sql.select_rows_correlated ~var:(var valuation) access env sub
          |> List.filter_map (fun row ->
                 incr explored;
                 if !explored > limit then raise (Ground.Ground_error "limit");
                 unify valuation exprs (Array.to_list row)))
        valuations
    | _ -> assert false
  in
  let valuations = List.fold_left step [ Ground.Valuation.empty ] binders in
  ( List.filter
      (fun v ->
        List.for_all (fun c -> Reference.Sql.eval_cond ~var:(var v) access env [] c) filters)
      valuations,
    !explored )

let prop_binder_reuse =
  (* Bodies mix uncorrelated binders (including a constant membership
     check shaped like Entangled-T's friendship check) with binders
     that read earlier bindings. Valuations, their order, the
     [entangle.ground.valuations] count and the limit error must all
     match the per-valuation reference. *)
  let binders =
    [| "(y) IN (SELECT q2 FROM Q WHERE q1 = 1)";
       "(1) IN (SELECT p2 FROM P WHERE p1 = 2)";
       "(y) IN (SELECT p2 FROM P WHERE p1 = x)";
       "(x, y) IN (SELECT q1, q2 FROM Q WHERE q2 > x)";
       "(z) IN (SELECT q1 FROM Q WHERE q2 = y)";
       "(z) IN (SELECT p1 FROM P)" |]
  in
  let gen =
    QCheck2.Gen.(
      triple
        (pair
           (list_size (int_range 0 6) (pair (int_range 0 3) (int_range 0 3)))
           (list_size (int_range 0 6) (pair (int_range 0 3) (int_range 0 3))))
        (list_size (int_range 0 4) (int_range 0 (Array.length binders - 1)))
        (pair bool (int_range 1 40)))
  in
  QCheck2.Test.make ~name:"binder reuse matches per-valuation enumeration"
    ~count:300 gen
    (fun ((p_rows, q_rows), picks, (filtered, limit)) ->
      let cat = Catalog.create () in
      let load name cols rows =
        let t =
          Catalog.create_table cat name
            (Schema.make
               (List.map (fun c -> { Schema.name = c; ty = T_int }) cols))
        in
        List.iter
          (fun (a, b) -> ignore (Table.insert t [| Value.Int a; Value.Int b |]))
          rows;
        t
      in
      Table.add_index (load "P" [ "p1"; "p2" ] p_rows) ~positions:[ 0 ];
      ignore (load "Q" [ "q1"; "q2" ] q_rows);
      let conds =
        ("(x) IN (SELECT p1 FROM P)" :: List.map (Array.get binders) picks)
        @ if filtered then [ "x < 2" ] else []
      in
      let body =
        (translate
           (Printf.sprintf
              "SELECT 'M', x INTO ANSWER R WHERE %s AND ('X', x) IN ANSWER R \
               CHOOSE 1"
              (String.concat " AND " conds)))
          .body
      in
      let access = Eval.direct_access cat in
      let env = Eval.fresh_env () in
      let outcome f =
        try Ok (f ()) with
        | Ground.Ground_error _ -> Error `Limit
        | Eval.Eval_error _ -> Error `Unbound
      in
      let before = obs_count "entangle.ground.valuations" in
      let got =
        outcome (fun () ->
            List.map Ground.Valuation.bindings
              (Ground.valuations ~limit ~access ~env body))
      in
      let counted = obs_count "entangle.ground.valuations" - before in
      let expected =
        outcome (fun () -> reference_valuations ~limit ~access ~env body)
      in
      match got, expected with
      | Ok vals, Ok (ref_vals, explored) ->
        vals = List.map Ground.Valuation.bindings ref_vals && counted = explored
      | Error a, Error b -> a = b && counted = 0
      | _ -> false)

(* --- coordination (Figure 1) --- *)

let evaluate_pair cat =
  let mickey = translate mickey_src in
  let minnie = translate minnie_src in
  Coordinate.evaluate
    [ (1, mickey, ground cat mickey); (2, minnie, ground cat minnie) ]

let test_coordinate_mickey_minnie () =
  let cat = figure1_catalog () in
  match evaluate_pair cat with
  | [ (1, Coordinate.Answered g1); (2, Coordinate.Answered g2) ] ->
    (* both must agree on the flight: 122 or 123 (United to LA) *)
    let fno g =
      match (g : Ground.grounding).g_head with
      | [ (_, [ _; fno; _ ]) ] -> Value.to_string fno
      | _ -> Alcotest.fail "unexpected head shape"
    in
    Alcotest.(check string) "same flight" (fno g1) (fno g2);
    Alcotest.(check bool) "united flight" true (List.mem (fno g1) [ "122"; "123" ]);
    (* mutual satisfaction: posts covered by the union of heads *)
    let heads = g1.g_head @ g2.g_head in
    List.iter
      (fun p ->
        Alcotest.(check bool) "post covered" true
          (List.exists (fun h -> h = p) heads))
      (g1.g_post @ g2.g_post)
  | _ -> Alcotest.fail "both queries should be answered"

let test_coordinate_alone_no_partner () =
  let cat = figure1_catalog () in
  let mickey = translate mickey_src in
  match Coordinate.evaluate [ (1, mickey, ground cat mickey) ] with
  | [ (1, Coordinate.No_partner) ] -> ()
  | _ -> Alcotest.fail "lone query should have no partner"

let test_coordinate_empty_success () =
  (* Partner present structurally, but the data admits no coordinated
     choice (Minnie insists on United, only USAir flies on Mickey's
     dates): both participated, neither answered -> Empty. *)
  let cat = Catalog.create () in
  let flights =
    Catalog.create_table cat "Flights"
      (Schema.make
         [ { name = "fno"; ty = T_int };
           { name = "fdate"; ty = T_date };
           { name = "dest"; ty = T_str } ])
  in
  ignore
    (Catalog.create_table cat "Airlines"
       (Schema.make
          [ { name = "fno"; ty = T_int }; { name = "airline"; ty = T_str } ]));
  ignore (Table.insert flights [| Value.Int 124; may3; Value.Str "LA" |]);
  ignore
    (Table.insert (Catalog.find_exn cat "Airlines")
       [| Value.Int 124; Value.Str "USAir" |]);
  match evaluate_pair cat with
  | [ (1, Coordinate.Empty); (2, Coordinate.Empty) ] -> ()
  | [ (1, o1); (2, o2) ] ->
    let name = function
      | Coordinate.Answered _ -> "answered"
      | Coordinate.Empty -> "empty"
      | Coordinate.No_partner -> "no-partner"
    in
    Alcotest.failf "expected empty/empty, got %s/%s" (name o1) (name o2)
  | _ -> Alcotest.fail "wrong arity"

let test_structural_blocking_donald () =
  (* Donald coordinates with Daffy, who is absent: structurally blocked
     even though Mickey and Minnie are around. *)
  let donald =
    translate
      "SELECT 'Donald', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
       Flights WHERE dest='LA') AND ('Daffy', fno) IN ANSWER R CHOOSE 1"
  in
  let mickey = translate mickey_src in
  let minnie = translate minnie_src in
  Alcotest.(check (list int)) "donald blocked" [ 3 ]
    (Coordinate.structurally_blocked [ (1, mickey); (2, minnie); (3, donald) ])

let test_structural_blocking_cascades () =
  (* a needs b's head; b needs c's head; c is absent: both a and b are
     blocked once c's absence eliminates b. *)
  let q sel = translate sel in
  let a =
    q
      "SELECT 'a', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM Flights) \
       AND ('b', fno) IN ANSWER R CHOOSE 1"
  in
  let b =
    q
      "SELECT 'b', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM Flights) \
       AND ('c', fno) IN ANSWER R CHOOSE 1"
  in
  Alcotest.(check (list int)) "cascade" [ 1; 2 ]
    (List.sort Int.compare (Coordinate.structurally_blocked [ (1, a); (2, b) ]))

(* Random query sets at the IR level, shaped to stress the index by
   constant position: relations of arity 1-3, a five-value constant
   domain (constants collide across queries; [Int 0] and [Date 0]
   share a payload but not a type), all-variable atoms, heads and
   posts of up to three atoms, and queries whose post is their own
   head. *)
let structural_gen =
  let open QCheck2.Gen in
  let var = map (fun x -> Ir.Var x) (oneofl [ "x"; "y" ]) in
  let const =
    map
      (fun v -> Ir.Const v)
      (oneofl
         [ Value.Int 0; Value.Int 1; Value.Int 2; Value.Str "0"; Value.Date 0 ])
  in
  let atom =
    let* rel = oneofl [ "R"; "S" ] in
    let* arity = int_range 1 3 in
    let* all_vars = frequency [ (1, return true); (4, return false) ] in
    let+ args =
      list_repeat arity
        (if all_vars then var else frequency [ (1, var); (2, const) ])
    in
    { Ir.rel; args }
  in
  let query =
    let* head = list_size (frequency [ (4, return 1); (1, int_range 2 3) ]) atom in
    let* post = list_size (int_range 0 3) atom in
    let+ self = frequency [ (5, return false); (1, return true) ] in
    let post = if self then List.hd head :: post else post in
    { Ir.head; post; body = Ast.True; binds = []; choose = 1 }
  in
  let+ queries = list_size (int_range 0 12) query in
  List.mapi (fun i q -> (i, q)) queries

let print_structural queries =
  String.concat "; "
    (List.map (fun (qid, q) -> Format.asprintf "%d: %a" qid Ir.pp q) queries)

let prop_structural_matches_reference =
  QCheck2.Test.make ~count:1000
    ~name:"indexed structurally_blocked equals the all-pairs reference"
    ~print:print_structural structural_gen (fun queries ->
      Coordinate.structurally_blocked queries
      = Reference.Structural.structurally_blocked queries)

(* --- complex structures (used by Figure 6c) --- *)

let flights_only_catalog = Gen.flights_only_catalog
let pair_query = Gen.pair_query

let test_coordinate_cycle () =
  (* a -> b -> c -> a: cyclic entanglement must resolve to a common
     flight for all three. *)
  let cat = flights_only_catalog 3 in
  let qa = translate (pair_query "a" "b") in
  let qb = translate (pair_query "b" "c") in
  let qc = translate (pair_query "c" "a") in
  match
    Coordinate.evaluate
      [ (1, qa, ground cat qa); (2, qb, ground cat qb); (3, qc, ground cat qc) ]
  with
  | [ (1, Answered g1); (2, Answered g2); (3, Answered g3) ] ->
    let fno (g : Ground.grounding) =
      match g.g_head with
      | [ (_, [ _; fno ]) ] -> Value.to_string fno
      | _ -> Alcotest.fail "head shape"
    in
    Alcotest.(check string) "a=b" (fno g1) (fno g2);
    Alcotest.(check string) "b=c" (fno g2) (fno g3)
  | _ -> Alcotest.fail "cycle should coordinate"

let test_coordinate_spoke_hub () =
  (* Hub h entangles with spokes s1 and s2 via separate relations, each
     requiring a different flight choice; the IR multi-head hub query
     contributes to both relations. *)
  let cat = flights_only_catalog 2 in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  ignore access;
  ignore env;
  let hub : Ir.t =
    {
      head =
        [ { rel = "R1"; args = [ Const (Value.Str "h"); Var "x" ] };
          { rel = "R2"; args = [ Const (Value.Str "h"); Var "y" ] } ];
      post =
        [ { rel = "R1"; args = [ Const (Value.Str "s1"); Var "x" ] };
          { rel = "R2"; args = [ Const (Value.Str "s2"); Var "y" ] } ];
      body =
        Parser.parse_cond
          "(x) IN (SELECT fno FROM Flights) AND (y) IN (SELECT fno FROM \
           Flights)";
      binds = [];
      choose = 1;
    }
  in
  let spoke name rel =
    translate
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER %s WHERE (fno) IN (SELECT fno FROM \
          Flights) AND ('h', fno) IN ANSWER %s CHOOSE 1"
         name rel rel)
  in
  let s1 = spoke "s1" "R1" in
  let s2 = spoke "s2" "R2" in
  let groundings q = ground cat q in
  match
    Coordinate.evaluate
      [ (1, hub, groundings hub); (2, s1, groundings s1); (3, s2, groundings s2) ]
  with
  | [ (1, Answered _); (2, Answered _); (3, Answered _) ] -> ()
  | _ -> Alcotest.fail "spoke-hub should coordinate"

let test_coordinate_partial_answering () =
  (* Mickey+Minnie coordinate; Donald+Daffy also coordinate; a fifth
     lone query stays unanswered. All evaluated together. *)
  let cat = flights_only_catalog 2 in
  let qs =
    [ (1, translate (pair_query "mickey" "minnie"));
      (2, translate (pair_query "minnie" "mickey"));
      (3, translate (pair_query "donald" "daffy"));
      (4, translate (pair_query "daffy" "donald"));
      (5, translate (pair_query "goofy" "pluto")) ]
  in
  let results =
    Coordinate.evaluate (List.map (fun (i, q) -> (i, q, ground cat q)) qs)
  in
  let outcome i = List.assoc i results in
  (match outcome 1, outcome 2, outcome 3, outcome 4 with
  | Answered _, Answered _, Answered _, Answered _ -> ()
  | _ -> Alcotest.fail "two pairs should both be answered");
  match outcome 5 with
  | No_partner -> ()
  | _ -> Alcotest.fail "goofy should be blocked"

let test_coordinate_asymmetric_choice () =
  (* Mickey accepts any LA flight; Minnie only flight 2 (by filter).
     Coordination must pick flight 2 for both. *)
  let cat = flights_only_catalog 3 in
  let mickey = translate (pair_query "m" "n") in
  let minnie =
    translate
      "SELECT 'n', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM Flights \
       WHERE dest='LA') AND fno = 2 AND ('m', fno) IN ANSWER R CHOOSE 1"
  in
  match
    Coordinate.evaluate
      [ (1, mickey, ground cat mickey); (2, minnie, ground cat minnie) ]
  with
  | [ (1, Answered g1); (2, Answered _) ] ->
    (match g1.g_head with
    | [ (_, [ _; fno ]) ] ->
      Alcotest.(check string) "flight 2 chosen" "2" (Value.to_string fno)
    | _ -> Alcotest.fail "head shape")
  | _ -> Alcotest.fail "should coordinate on flight 2"

(* --- combined-query evaluation (the algorithm of [6]) --- *)

let test_combined_compile_pair () =
  let mickey = translate mickey_src in
  let minnie = translate minnie_src in
  match Combined.compile [ (1, mickey); (2, minnie) ] with
  | [ c ] ->
    Alcotest.(check (list int)) "one component of two" [ 1; 2 ] c.member_ids;
    (* each query's single post matched against the partner's head *)
    Alcotest.(check int) "two constraints" 2 (List.length c.constraints);
    Alcotest.(check bool) "cross constraints" true
      (List.mem ((1, 0), (2, 0)) c.constraints
      && List.mem ((2, 0), (1, 0)) c.constraints)
  | cs -> Alcotest.failf "expected one combined query, got %d" (List.length cs)

let test_combined_mickey_minnie () =
  let cat = figure1_catalog () in
  let mickey = translate mickey_src in
  let minnie = translate minnie_src in
  match
    Combined.evaluate
      [ (1, mickey, ground cat mickey); (2, minnie, ground cat minnie) ]
  with
  | [ (1, Combined.Answered g1); (2, Combined.Answered g2) ] ->
    let heads = g1.g_head @ g2.g_head in
    List.iter
      (fun p ->
        Alcotest.(check bool) "post covered" true (List.exists (fun h -> h = p) heads))
      (g1.g_post @ g2.g_post)
  | _ -> Alcotest.fail "combined evaluation should answer both"

let test_combined_no_partner_and_empty () =
  let cat = figure1_catalog () in
  let mickey = translate mickey_src in
  let donald =
    translate
      "SELECT 'Donald', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
       Flights WHERE dest='LA') AND ('Daffy', fno) IN ANSWER R CHOOSE 1"
  in
  (match Combined.evaluate [ (3, donald, ground cat donald) ] with
  | [ (3, Combined.No_partner) ] -> ()
  | _ -> Alcotest.fail "lone query: no partner");
  (* structurally fine but one side has zero groundings: Empty *)
  let minnie = translate minnie_src in
  match
    Combined.evaluate [ (1, mickey, ground cat mickey); (2, minnie, []) ]
  with
  | [ (1, Combined.Empty); (2, Combined.Empty) ] -> ()
  | _ -> Alcotest.fail "no coordinated choice: empty success"

let test_combined_cycle () =
  let cat = flights_only_catalog 3 in
  let qa = translate (pair_query "a" "b") in
  let qb = translate (pair_query "b" "c") in
  let qc = translate (pair_query "c" "a") in
  match
    Combined.evaluate
      [ (1, qa, ground cat qa); (2, qb, ground cat qb); (3, qc, ground cat qc) ]
  with
  | [ (1, Answered g1); (2, Answered g2); (3, Answered g3) ] ->
    let fno (g : Ground.grounding) =
      match g.g_head with
      | [ (_, [ _; fno ]) ] -> Value.to_string fno
      | _ -> Alcotest.fail "head shape"
    in
    Alcotest.(check string) "a=b" (fno g1) (fno g2);
    Alcotest.(check string) "b=c" (fno g2) (fno g3)
  | _ -> Alcotest.fail "combined cycle should coordinate"

let test_combined_spoke_hub_multihead () =
  (* the hub's multi-head IR query compiles into one component with the
     spokes; the join answers everyone *)
  let cat = flights_only_catalog 2 in
  let hub : Ir.t =
    {
      head =
        [ { rel = "R1"; args = [ Const (Value.Str "h"); Var "x" ] };
          { rel = "R2"; args = [ Const (Value.Str "h"); Var "y" ] } ];
      post =
        [ { rel = "R1"; args = [ Const (Value.Str "s1"); Var "x" ] };
          { rel = "R2"; args = [ Const (Value.Str "s2"); Var "y" ] } ];
      body =
        Parser.parse_cond
          "(x) IN (SELECT fno FROM Flights) AND (y) IN (SELECT fno FROM Flights)";
      binds = [];
      choose = 1;
    }
  in
  let spoke name rel =
    translate
      (Printf.sprintf
         "SELECT '%s', fno INTO ANSWER %s WHERE (fno) IN (SELECT fno FROM \
          Flights) AND ('h', fno) IN ANSWER %s CHOOSE 1"
         name rel rel)
  in
  let s1 = spoke "s1" "R1" and s2 = spoke "s2" "R2" in
  (match Combined.compile [ (1, hub); (2, s1); (3, s2) ] with
  | [ c ] -> Alcotest.(check (list int)) "one component" [ 1; 2; 3 ] c.member_ids
  | cs -> Alcotest.failf "expected 1 combined, got %d" (List.length cs));
  match
    Combined.evaluate
      [ (1, hub, ground cat hub); (2, s1, ground cat s1); (3, s2, ground cat s2) ]
  with
  | [ (1, Answered _); (2, Answered _); (3, Answered _) ] -> ()
  | _ -> Alcotest.fail "combined spoke-hub should answer all"

let test_combined_matching_bound () =
  (* ten queries all posting the same pattern would yield 10^10
     matchings; the bound must keep compilation finite *)
  let cat = flights_only_catalog 1 in
  let qs =
    List.init 10 (fun i ->
        (i, translate (pair_query (Printf.sprintf "u%d" i) "u0")))
  in
  let combineds = Combined.compile ~max_matchings:8 qs in
  Alcotest.(check bool) "bounded" true (List.length combineds <= 8);
  ignore cat

let prop_combined_agrees_with_search =
  (* Both strategies implement the same declarative semantics: on
     random pairing workloads they must answer exactly the same set of
     queries (the chosen values may differ — both are legal
     nondeterministic choices). *)
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 8) (list_size (int_range 1 10) (int_range 0 7)))
  in
  QCheck2.Test.make ~name:"combined and search answer the same queries"
    ~count:100 gen
    (fun (n_flights, partner_prefs) ->
      let cat = flights_only_catalog n_flights in
      let queries =
        List.mapi
          (fun i pref ->
            let me = Printf.sprintf "u%d" i in
            let partner =
              Printf.sprintf "u%d" (pref mod List.length partner_prefs)
            in
            let q = translate (pair_query me partner) in
            (i, q, ground cat q))
          partner_prefs
      in
      let classify results =
        List.map
          (fun (qid, o) ->
            ( qid,
              match o with
              | Coordinate.Answered _ -> `A
              | Coordinate.Empty -> `E
              | Coordinate.No_partner -> `N ))
          results
      in
      classify (Coordinate.evaluate queries)
      = classify (Combined.evaluate queries))

(* --- grounding cache --- *)

let table_of cat name =
  match Catalog.find cat name with
  | Some t -> t
  | None -> Alcotest.failf "no table %s" name

let test_gcache_hit_and_invalidate () =
  let cat = figure1_catalog () in
  let cache = Gcache.create cat in
  let q = translate mickey_src in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let touched = ref [] in
  let compute () =
    Gcache.compute cache ~access ~touch:(fun ts -> touched := ts) ~env q
  in
  let g1, c1 = compute () in
  Alcotest.(check bool) "first is a miss" false c1;
  let g2, c2 = compute () in
  Alcotest.(check bool) "second is a hit" true c2;
  Alcotest.(check bool) "hit equals miss" true (g1 = g2);
  Alcotest.(check bool) "touch saw the footprint" true
    (List.mem "Flights" !touched);
  (* a write inside the footprint invalidates *)
  ignore
    (Table.insert (table_of cat "Flights")
       [| Value.Int 500; may3; Value.Str "LA" |]);
  let g3, c3 = compute () in
  Alcotest.(check bool) "recomputed after the write" false c3;
  Alcotest.(check bool) "fresh result" true
    (g3 = Ground.compute ~access ~env q);
  Alcotest.(check (triple int int int)) "stats" (1, 2, 1) (Gcache.stats cache)

let test_gcache_unrelated_write_keeps_entry () =
  let cat = figure1_catalog () in
  let cache = Gcache.create cat in
  let q = translate mickey_src in
  (* mickey reads Flights only *)
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let compute () = Gcache.compute cache ~access ~touch:(fun _ -> ()) ~env q in
  ignore (compute ());
  ignore
    (Table.insert (table_of cat "Airlines")
       [| Value.Int 500; Value.Str "Delta" |]);
  let _, cached = compute () in
  Alcotest.(check bool) "write outside the footprint keeps the hit" true cached

let test_gcache_point_footprint () =
  (* With an equality index the footprint is a point probe, so writes
     to rows with other keys do not invalidate. *)
  let cat = figure1_catalog () in
  let flights = table_of cat "Flights" in
  Table.add_index flights ~positions:[ 2 ];
  let cache = Gcache.create cat in
  let q = translate mickey_src in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let compute () = Gcache.compute cache ~access ~touch:(fun _ -> ()) ~env q in
  ignore (compute ());
  ignore (Table.insert flights [| Value.Int 600; may3; Value.Str "Tokyo" |]);
  let _, cached = compute () in
  Alcotest.(check bool) "non-matching key keeps the hit" true cached;
  ignore (Table.insert flights [| Value.Int 601; may3; Value.Str "LA" |]);
  let served, cached = compute () in
  Alcotest.(check bool) "matching key invalidates" false cached;
  Alcotest.(check bool) "recomputation sees the new row" true
    (List.exists
       (fun (g : Ground.grounding) ->
         List.exists
           (fun (_, values) -> List.mem (Value.Int 601) values)
           g.g_head)
       served)

(* A miss resets the cache wholesale when it finds [max_entries]
   entries, however many grounding lists they serve. At
   [~max_entries:2], body 0 served under two heads is one entry with two
   lists, so body 1's miss must keep it; body 2's miss finds two entries
   and resets. *)
let test_gcache_capacity_counts_entries () =
  let cat = Catalog.create () in
  let flights =
    Catalog.create_table cat "Flights"
      (Schema.make
         [ { Schema.name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ])
  in
  for i = 1 to 3 do
    ignore (Table.insert flights [| Value.Int i; Value.Str "LA" |])
  done;
  let cache = Gcache.create ~max_entries:2 cat in
  let access = Eval.direct_access cat in
  let env = Eval.fresh_env () in
  let cached tag i =
    let q =
      translate
        (Printf.sprintf
           "SELECT '%s%d', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
            Flights WHERE dest='LA') AND fno > %d AND ('%s%d', fno) IN ANSWER \
            R CHOOSE 1"
           tag i i tag (i + 1))
    in
    snd (Gcache.compute cache ~access ~touch:(fun _ -> ()) ~env q)
  in
  Alcotest.(check bool) "body 0 under u misses" false (cached "u" 0);
  Alcotest.(check bool) "body 0 under v hits" true (cached "v" 0);
  Alcotest.(check bool) "body 1 misses" false (cached "u" 1);
  Alcotest.(check bool) "one entry short of full: body 0 kept" true
    (cached "u" 0);
  Alcotest.(check bool) "body 2 misses" false (cached "u" 2);
  Alcotest.(check bool) "two entries: the reset dropped body 0" false
    (cached "u" 0)

(* --- Entangled-T bodies: read count and key spread --- *)

(* The translated entangled query of each program, with the host
   environment ([@uid], [@hometown]) its first statement binds. *)
let entangled_queries (world : Ent_workload.Travel.t) programs =
  let cat = Ent_core.Manager.catalog world.manager in
  let access = Eval.direct_access cat in
  List.map
    (fun (p : Ent_core.Program.t) ->
      let env = Eval.fresh_env () in
      List.find_map
        (fun ((stmt : Ast.stmt), _) ->
          match stmt with
          | Entangled e -> Some (Translate.of_ast ~env e)
          | stmt ->
            ignore (Eval.exec_stmt access env stmt);
            None)
        p.ast.body
      |> fun q -> (Option.get q, env))
    programs

let test_friendship_body_reads () =
  (* The flight binder reads only [@hometown] and the friendship check
     only literals. Neither reads the valuation, so each runs once: one
     index probe each, however many destinations the first yields. *)
  let world = Ent_workload.Travel.build () in
  let q, env =
    List.hd
      (entangled_queries world
         (Ent_workload.Gen.batch world ~transactional:true Entangled ~n:2
            ~tag_base:0))
  in
  let access = Eval.direct_access (Ent_core.Manager.catalog world.manager) in
  let lookups = obs_count "storage.index.lookups" in
  let vals = Ground.valuations ~access ~env q.body in
  Alcotest.(check bool) "grounds to several destinations" true
    (List.length vals > 1);
  Alcotest.(check int) "index lookups" 2
    (obs_count "storage.index.lookups" - lookups)

let test_gcache_key_spread () =
  let world = Ent_workload.Travel.build () in
  let bodies =
    entangled_queries world
      (Ent_workload.Gen.batch world ~transactional:true Entangled ~n:1200
         ~tag_base:0)
    |> List.sort_uniq (fun ((a : Ir.t), _) ((b : Ir.t), _) -> compare a.body b.body)
    |> List.filteri (fun i _ -> i < 1000)
  in
  Alcotest.(check int) "distinct bodies" 1000 (List.length bodies);
  let hashes =
    List.sort_uniq Int.compare
      (List.map
         (fun ((q : Ir.t), env) -> Gcache.key_hash ~env ~limit:10_000 q.body)
         bodies)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct hashes >= 990" (List.length hashes))
    true
    (List.length hashes >= 990)

(* --- property: grounding-cache transparency --- *)

let prop_gcache_transparent =
  (* The cache's defining property: under arbitrary interleavings of
     writes, index creation and grounding rounds, a grounding request
     served through the cache equals a fresh Ground.compute on the
     current database — groundings, order and all. Each body is asked
     for under two heads, so hits must also keep apart the grounding
     lists they reuse. *)
  let op_gen =
    QCheck2.Gen.(
      oneof
        [ map (fun n -> `Insert n) (int_range 0 9);
          map (fun n -> `Delete n) (int_range 0 40);
          map (fun n -> `Update n) (int_range 0 40);
          map (fun n -> `Ground n) (int_range 0 4);
          return `Index ])
  in
  QCheck2.Test.make ~name:"cache-served groundings equal fresh recomputation"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      let cat = Catalog.create () in
      let flights =
        Catalog.create_table cat "Flights"
          (Schema.make
             [ { Schema.name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ])
      in
      for i = 1 to 3 do
        ignore (Table.insert flights [| Value.Int i; Value.Str "LA" |])
      done;
      let cache = Gcache.create cat in
      (* body [i] under tag [u] and under tag [v]: one cache entry,
         two (head, post) shapes it must serve apart *)
      let queries =
        Array.init 5 (fun i ->
            List.map
              (fun tag ->
                translate
                  (Printf.sprintf
                     "SELECT '%s%d', fno INTO ANSWER R WHERE (fno) IN (SELECT \
                      fno FROM Flights WHERE dest='%s') AND fno > %d AND \
                      ('%s%d', fno) IN ANSWER R CHOOSE 1"
                     tag i
                     (if i mod 2 = 0 then "LA" else "NY")
                     (i / 2) tag ((i + 1) mod 5)))
              [ "u"; "v" ])
      in
      let access = Eval.direct_access cat in
      let env = Eval.fresh_env () in
      let dest n = Value.Str (if n mod 3 = 0 then "NY" else "LA") in
      List.for_all
        (fun op ->
          match op with
          | `Insert n ->
            ignore (Table.insert flights [| Value.Int n; dest n |]);
            true
          | `Delete n ->
            ignore (Table.delete flights n);
            true
          | `Update n ->
            ignore (Table.update flights n [| Value.Int (n mod 10); dest (n + 1) |]);
            true
          | `Index ->
            Table.add_index flights ~positions:[ 1 ];
            true
          | `Ground qi ->
            List.for_all
              (fun q ->
                let served, _cached =
                  Gcache.compute cache ~access ~touch:(fun _ -> ()) ~env q
                in
                served = Ground.compute ~access ~env q)
              queries.(qi))
        ops)

(* --- property: coordination soundness --- *)

let prop_coordination_sound =
  (* Random pairing workloads: whatever the evaluator answers, the
     chosen groundings must mutually satisfy each other's
     postconditions (the defining property of a coordinating set). *)
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 8) (list_size (int_range 1 12) (int_range 0 7)))
  in
  QCheck2.Test.make ~name:"answered sets are coordinating sets" ~count:100 gen
    (fun (n_flights, partner_prefs) ->
      let cat = flights_only_catalog n_flights in
      (* build queries: user i wants to fly with user (pref i) *)
      let queries =
        List.mapi
          (fun i pref ->
            let me = Printf.sprintf "u%d" i in
            let partner = Printf.sprintf "u%d" (pref mod List.length partner_prefs) in
            let q = translate (pair_query me partner) in
            (i, q, ground cat q))
          partner_prefs
      in
      let results = Coordinate.evaluate queries in
      let answered =
        List.filter_map
          (fun (_, o) ->
            match o with
            | Coordinate.Answered g -> Some g
            | _ -> None)
          results
      in
      let heads = List.concat_map (fun (g : Ground.grounding) -> g.g_head) answered in
      List.for_all
        (fun (g : Ground.grounding) ->
          List.for_all (fun p -> List.exists (fun h -> h = p) heads) g.g_post)
        answered)

let () =
  Alcotest.run "entangle"
    [ ( "translate",
        [ Alcotest.test_case "mickey" `Quick test_translate_mickey;
          Alcotest.test_case "host resolution" `Quick test_translate_host_resolution;
          Alcotest.test_case "AS @var binds" `Quick test_translate_binds;
          Alcotest.test_case "unsafe unbound var" `Quick test_translate_unsafe_unbound_var;
          Alcotest.test_case "IN ANSWER under OR" `Quick test_translate_rejects_in_answer_under_or;
          Alcotest.test_case "unbound host" `Quick test_translate_unbound_host ] );
      ( "ground",
        [ Alcotest.test_case "mickey (Fig 7)" `Quick test_ground_mickey;
          Alcotest.test_case "minnie join (Fig 7)" `Quick test_ground_minnie_join;
          Alcotest.test_case "filter" `Quick test_ground_filter_condition;
          Alcotest.test_case "dedup" `Quick test_ground_dedup;
          Alcotest.test_case "dedup hash reaches every value" `Quick test_ground_dedup_hash;
          Alcotest.test_case "empty" `Quick test_ground_empty;
          Alcotest.test_case "limit" `Quick test_ground_limit ] );
      ( "coordinate",
        [ Alcotest.test_case "mickey-minnie (Fig 1)" `Quick test_coordinate_mickey_minnie;
          Alcotest.test_case "alone: no partner" `Quick test_coordinate_alone_no_partner;
          Alcotest.test_case "empty success" `Quick test_coordinate_empty_success;
          Alcotest.test_case "donald blocked" `Quick test_structural_blocking_donald;
          Alcotest.test_case "blocking cascades" `Quick test_structural_blocking_cascades;
          Alcotest.test_case "cycle" `Quick test_coordinate_cycle;
          Alcotest.test_case "spoke-hub" `Quick test_coordinate_spoke_hub;
          Alcotest.test_case "partial answering" `Quick test_coordinate_partial_answering;
          Alcotest.test_case "asymmetric choice" `Quick test_coordinate_asymmetric_choice ] );
      ( "combined",
        [ Alcotest.test_case "compile pair" `Quick test_combined_compile_pair;
          Alcotest.test_case "mickey-minnie" `Quick test_combined_mickey_minnie;
          Alcotest.test_case "no partner / empty" `Quick test_combined_no_partner_and_empty;
          Alcotest.test_case "cycle" `Quick test_combined_cycle;
          Alcotest.test_case "spoke-hub multi-head" `Quick test_combined_spoke_hub_multihead;
          Alcotest.test_case "matching bound" `Quick test_combined_matching_bound ] );
      ( "gcache",
        [ Alcotest.test_case "hit then invalidate" `Quick
            test_gcache_hit_and_invalidate;
          Alcotest.test_case "unrelated write keeps entry" `Quick
            test_gcache_unrelated_write_keeps_entry;
          Alcotest.test_case "point footprint" `Quick
            test_gcache_point_footprint;
          Alcotest.test_case "friendship body reads" `Quick
            test_friendship_body_reads;
          Alcotest.test_case "key hash spread" `Quick test_gcache_key_spread;
          Alcotest.test_case "capacity counts entries" `Quick
            test_gcache_capacity_counts_entries ] );
      ( "properties",
        List.map Gen.to_alcotest
          [ prop_coordination_sound;
            prop_structural_matches_reference;
            prop_combined_agrees_with_search;
            prop_gcache_transparent;
            prop_binder_reuse ] ) ]

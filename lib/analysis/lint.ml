module Ast = Ent_sql.Ast

type input = Matrix.input = {
  source : string;
  program : Ent_core.Program.t;
}

(* ------------------------------------------------------------------ *)
(* Entangled-query sanity: unsatisfiable bodies, range restriction,
   CHOOSE bounds. The variable-binding rules mirror Ir.cond_bound_vars /
   Ir.answer_vars so the lint predicts exactly what Ir.validate and the
   evaluator will reject at run time — plus the purely semantic cases
   (contradictory constraints) they cannot see.                        *)
(* ------------------------------------------------------------------ *)

let rec expr_vars (e : Ast.expr) =
  match e with
  | Lit _ | Host _ -> []
  | Col (None, v) -> [ v ]
  | Col (Some _, _) -> []
  | Binop (_, a, b) -> expr_vars a @ expr_vars b
  | Agg _ | Count_star -> []

let rec post_vars (c : Ast.cond) =
  match c with
  | In_answer (exprs, _) -> List.concat_map expr_vars exprs
  | And (a, b) | Or (a, b) -> post_vars a @ post_vars b
  | Not a -> post_vars a
  | True | Cmp _ | In_select _ | In_list _ | Between _ -> []

(* A variable is bound when a body atom ranges over it (IN (SELECT ..))
   or an equality pins it to a constant — same rule as the IR. *)
let rec bound_vars (c : Ast.cond) =
  match c with
  | And (a, b) -> bound_vars a @ bound_vars b
  | In_select (exprs, _) -> List.concat_map expr_vars exprs
  | Cmp (Eq, Col (None, v), (Lit _ | Host _))
  | Cmp (Eq, (Lit _ | Host _), Col (None, v)) -> [ v ]
  | True | Cmp _ | Or _ | Not _ | In_list _ | Between _ | In_answer _ -> []

let check_entangled ~source ~label ~at (e : Ast.entangled_select) =
  let finding ?witness ~code ~severity msg =
    Finding.make ~source ~program:label ~at ?witness ~code ~severity msg
  in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let pred = Pred.of_cond ~owns:(fun q -> q = None) e.ewhere in
  (match Pred.unsat_witness pred with
  | Some why ->
    add
      (finding ~code:"unsat-entangled" ~severity:Finding.Error
         ~witness:[ why ]
         (Printf.sprintf
            "entangled query into ANSWER %s has an unsatisfiable grounding \
             body: no candidate answer exists, so coordination can never \
             succeed"
            e.into))
  | None -> ());
  let answer =
    List.sort_uniq String.compare
      (List.concat_map (fun (p : Ast.proj) -> expr_vars p.pexpr) e.eprojs
      @ post_vars e.ewhere)
  in
  let bound = bound_vars e.ewhere in
  List.iter
    (fun v ->
      if not (List.mem v bound) then
        add
          (finding ~code:"degenerate-entangled" ~severity:Finding.Error
             (Printf.sprintf
                "answer variable %s is not bound by any body atom (range \
                 restriction): no IN (SELECT ...) ranges over it and no \
                 equality pins it to a constant"
                v)))
    answer;
  if e.choose <> 1 then
    add
      (finding ~code:"choose-unsupported" ~severity:Finding.Error
         (Printf.sprintf
            "CHOOSE %d is not supported by the evaluator (only CHOOSE 1)"
            e.choose));
  (* Static candidate bound: only claimed when every head variable has a
     finite candidate set, since distinct answer tuples are valuations
     of exactly those variables. *)
  let head_vars =
    List.sort_uniq String.compare
      (List.concat_map (fun (p : Ast.proj) -> expr_vars p.pexpr) e.eprojs)
  in
  (if e.choose > 1 && not (Pred.unsat pred) then
     let counts = List.map (fun v -> (v, Pred.count pred v)) head_vars in
     if List.for_all (fun (_, c) -> c <> None) counts then
       let bound =
         List.fold_left
           (fun acc (_, c) -> acc * Option.value ~default:1 c)
           1 counts
       in
       if bound < e.choose then
         add
           (finding ~code:"choose-bound" ~severity:Finding.Error
              ~witness:
                (List.map
                   (fun (v, c) ->
                     Printf.sprintf "variable %s: at most %d candidate value%s"
                       v
                       (Option.value ~default:1 c)
                       (if Option.value ~default:1 c = 1 then "" else "s"))
                   counts)
              (Printf.sprintf
                 "CHOOSE %d exceeds the static candidate bound of %d distinct \
                  answer tuple%s: the query can never be satisfied"
                 e.choose bound
                 (if bound = 1 then "" else "s"))));
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Widowed-transaction risk (Requirement C.4): once a transaction has
   coordinated, aborting it — or invalidating the premise its partner
   grounded on — widows the partner.                                   *)
(* ------------------------------------------------------------------ *)

let check_widow_risk ~source (summary : Summary.t) =
  let label = summary.program.label in
  let entangled_before = ref [] in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (ss : Summary.stmt_summary) ->
      (match ss.stmt with
      | Ast.Rollback ->
        List.iter
          (fun (eat, into, _grounds) ->
            add
              (Finding.make ~source ~program:label ~at:ss.at ~code:"widow-risk"
                 ~severity:Finding.Error
                 ~witness:
                   [
                     Format.asprintf
                       "entangled query into ANSWER %s at %a precedes the \
                        ROLLBACK"
                       into Ast.pp_pos eat;
                   ]
                 "ROLLBACK after an entangled query: aborting after \
                  coordination widows the partner transaction (Requirement \
                  C.4) — under group commit the whole group must abort with \
                  it"))
          !entangled_before
      | _ ->
        List.iter
          (fun (a : Summary.access) ->
            if a.mode = Summary.Write then
              List.iter
                (fun (eat, into, grounds) ->
                  List.iter
                    (fun (g : Summary.access) ->
                      if g.table = a.table && Pred.may_overlap g.pred a.pred
                      then
                        add
                          (Finding.make ~source ~program:label ~at:ss.at
                             ~code:"widow-risk" ~severity:Finding.Warning
                             ~witness:
                               [
                                 Format.asprintf
                                   "grounding read of %s by the entangled \
                                    query into ANSWER %s at %a" g.table into
                                   Ast.pp_pos eat;
                               ]
                             (Printf.sprintf
                                "writes table %s after an entangled query \
                                 grounded on it: the write can invalidate \
                                 the premise the partner coordinated on"
                                a.table)))
                    grounds)
                !entangled_before)
          ss.accesses);
      match ss.stmt with
      | Ast.Entangled e ->
        entangled_before :=
          (ss.at, e.into, ss.accesses) :: !entangled_before
      | _ -> ())
    summary.stmts;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* -Q-style hazard: entangled queries in autocommit programs.          *)
(* ------------------------------------------------------------------ *)

let check_autocommit ~source (summary : Summary.t) =
  if summary.program.transactional then []
  else
    List.filter_map
      (fun (ss : Summary.stmt_summary) ->
        match ss.stmt with
        | Ast.Entangled e ->
          Some
            (Finding.make ~source ~program:summary.program.label ~at:ss.at
               ~code:"autocommit-entangle" ~severity:Finding.Warning
               (Printf.sprintf
                  "entangled query into ANSWER %s outside a transaction \
                   (-Q style): coordination and the statements that use its \
                   answer commit separately, so a partner failure in between \
                   leaves this program's effects committed on a dead premise"
                  e.into))
        | _ -> None)
      summary.stmts

(* ------------------------------------------------------------------ *)
(* Potential deadlock: cycles in the static lock-order graph under
   Strict 2PL. The graph construction and cycle search live in
   {!Matrix}, which also serves the conflict/commutativity analysis.   *)
(* ------------------------------------------------------------------ *)

let check_deadlocks (inputs : input list) =
  Matrix.deadlock_findings (Matrix.analyze inputs)

(* ------------------------------------------------------------------ *)

let check_program (i : input) =
  let summary = Summary.of_program i.program in
  let entangled =
    List.concat_map
      (fun (ss : Summary.stmt_summary) ->
        match ss.stmt with
        | Ast.Entangled e ->
          check_entangled ~source:i.source ~label:i.program.label ~at:ss.at e
        | _ -> [])
      summary.stmts
  in
  let widow =
    if i.program.transactional then check_widow_risk ~source:i.source summary
    else []
  in
  entangled @ widow @ check_autocommit ~source:i.source summary

let run inputs =
  let per_program = List.concat_map check_program inputs in
  let deadlocks = check_deadlocks inputs in
  List.sort Finding.compare (per_program @ deadlocks)

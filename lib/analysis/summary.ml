module Ast = Ent_sql.Ast

type mode =
  | Read
  | Ground_read
  | Write

type access = {
  table : string;
  mode : mode;
  pred : Pred.t;
}

type stmt_summary = {
  stmt : Ast.stmt;
  at : Ast.pos;
  accesses : access list;
}

type t = {
  program : Ent_core.Program.t;
  stmts : stmt_summary list;
}

let lock_of_mode = function
  | Read | Ground_read -> `S
  | Write -> `X

let pp_lock ppf l =
  Format.pp_print_string ppf
    (match l with
    | `S -> "S"
    | `X -> "X")

(* Ownership of a column reference within a FROM clause: an explicit
   qualifier must name the alias; an unqualified column is attributed
   only when the alias is the sole table in scope. *)
let owns_in ~from alias q =
  match q with
  | Some q -> q = alias
  | None -> ( match from with [ _ ] -> true | _ -> false)

let rec accesses_of_select (s : Ast.select) =
  let per_table =
    List.map
      (fun (table, alias) ->
        {
          table;
          mode = Read;
          pred = Pred.of_cond ~owns:(owns_in ~from:s.from alias) s.where;
        })
      s.from
  in
  per_table @ subquery_accesses s.where

(* Subqueries in a condition contribute plain reads of their own
   tables, recursively. *)
and subquery_accesses (c : Ast.cond) =
  match c with
  | True | Cmp _ | In_list _ | Between _ | In_answer _ -> []
  | And (a, b) | Or (a, b) -> subquery_accesses a @ subquery_accesses b
  | Not a -> subquery_accesses a
  | In_select (_, sub) -> accesses_of_select sub

(* During grounding, the engine evaluates the body's subqueries under
   grounding reads; every table reachable from the entangled WHERE is a
   grounding read. *)
let grounding_accesses (e : Ast.entangled_select) =
  List.map
    (fun a ->
      match a.mode with
      | Read -> { a with mode = Ground_read }
      | Ground_read | Write -> a)
    (subquery_accesses e.ewhere)

let single_table_pred table where =
  Pred.of_cond ~owns:(owns_in ~from:[ (table, table) ] table) where

let accesses_of_stmt (s : Ast.stmt) =
  match s with
  | Select sel -> accesses_of_select sel
  | Insert { table; columns; values } ->
    let pred =
      match columns with
      | Some cols when List.length cols = List.length values ->
        let eq_cols =
          List.filter_map
            (fun (c, e) ->
              match (e : Ast.expr) with
              | Lit v ->
                Some (c, { Pred.empty_cstr with eqs = [ v ] })
              | _ -> None)
            (List.combine cols values)
        in
        {
          Pred.cols = List.sort (fun (a, _) (b, _) -> String.compare a b) eq_cols;
          falsum = false;
          exact = List.length eq_cols = List.length cols;
        }
      | _ -> Pred.top
    in
    [ { table; mode = Write; pred } ]
  | Update { table; set = _; where } ->
    { table; mode = Write; pred = single_table_pred table where }
    :: subquery_accesses where
  | Delete { table; where } ->
    { table; mode = Write; pred = single_table_pred table where }
    :: subquery_accesses where
  | Create_table { table; _ } -> [ { table; mode = Write; pred = Pred.exact_top } ]
  | Create_index { table; _ } -> [ { table; mode = Read; pred = Pred.exact_top } ]
  | Drop_table table -> [ { table; mode = Write; pred = Pred.exact_top } ]
  | Set_var _ -> []
  | Entangled e -> grounding_accesses e
  | Rollback -> []

let of_program (program : Ent_core.Program.t) =
  {
    program;
    stmts =
      List.map
        (fun (stmt, at) -> { stmt; at; accesses = accesses_of_stmt stmt })
        program.ast.body;
  }

(* The sequence in which a Strict 2PL executor acquires locks: one
   entry per access, in statement order, held to end of transaction. *)
let lock_sequence t =
  List.concat_map
    (fun ss ->
      List.map
        (fun a -> (a.table, lock_of_mode a.mode, a.pred, ss.at))
        ss.accesses)
    t.stmts

let tables t =
  List.sort_uniq String.compare
    (List.concat_map
       (fun ss -> List.map (fun a -> a.table) ss.accesses)
       t.stmts)

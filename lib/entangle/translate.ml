open Ent_storage

exception Translate_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Translate_error s)) fmt

(* An expression in head/postcondition position becomes a term:
   literals and (resolved) host variables become constants; a bare
   identifier is a variable; constant arithmetic is folded. [env] is
   the host lookup; [of_ast_reads] records through it. *)
let rec term_of_expr env (e : Ent_sql.Ast.expr) =
  match e with
  | Lit v -> Ir.Const v
  | Host name -> (
    match env name with
    | Some v -> Ir.Const v
    | None -> fail "unbound host variable @%s in entangled query" name)
  | Col (None, name) -> Ir.Var name
  | Col (Some q, name) ->
    fail "qualified column %s.%s cannot appear in an answer tuple" q name
  | Agg _ | Count_star -> fail "aggregates cannot appear in an answer tuple"
  | Binop (op, a, b) -> (
    match term_of_expr env a, term_of_expr env b with
    | Const va, Const vb ->
      Ir.Const
        (match op with
        | Add -> Value.add va vb
        | Sub -> Value.sub va vb
        | Mul -> Value.mul va vb
        | Div -> Value.div va vb)
    | _ -> fail "arithmetic over variables in an answer tuple is not supported")

(* Split the WHERE clause into postconditions (IN ANSWER atoms) and the
   grounding body. IN ANSWER under OR/NOT has no coordination
   semantics, so it is rejected. *)
let rec split_where env (c : Ent_sql.Ast.cond) =
  match c with
  | And (a, b) ->
    let posts_a, body_a = split_where env a in
    let posts_b, body_b = split_where env b in
    let body =
      match body_a, body_b with
      | Ent_sql.Ast.True, b -> b
      | a, Ent_sql.Ast.True -> a
      | a, b -> Ent_sql.Ast.And (a, b)
    in
    (posts_a @ posts_b, body)
  | In_answer (exprs, rel) ->
    ([ { Ir.rel; args = List.map (term_of_expr env) exprs } ], Ent_sql.Ast.True)
  | Or _ | Not _ ->
    if contains_in_answer c then
      fail "IN ANSWER may not appear under OR or NOT"
    else ([], c)
  | True | Cmp _ | In_select _ | In_list _ | Between _ -> ([], c)

and contains_in_answer (c : Ent_sql.Ast.cond) =
  match c with
  | In_answer _ -> true
  | And (a, b) | Or (a, b) -> contains_in_answer a || contains_in_answer b
  | Not a -> contains_in_answer a
  | True | Cmp _ | In_select _ | In_list _ | Between _ -> false

let translate env (e : Ent_sql.Ast.entangled_select) =
  let head_args =
    List.map (fun (p : Ent_sql.Ast.proj) -> term_of_expr env p.pexpr) e.eprojs
  in
  let binds =
    List.concat
      (List.mapi
         (fun i (p : Ent_sql.Ast.proj) ->
           match p.pbind with
           | Some v -> [ (v, i) ]
           | None -> [])
         e.eprojs)
  in
  let post, body = split_where env e.ewhere in
  let query =
    {
      Ir.head = [ { Ir.rel = e.into; args = head_args } ];
      post;
      body;
      binds;
      choose = e.choose;
    }
  in
  Ir.validate query;
  query

let of_ast ~env e = translate (Hashtbl.find_opt env) e

let of_ast_reads ~env e =
  let reads = ref [] in
  let lookup name =
    let v = Hashtbl.find_opt env name in
    Option.iter (fun v -> reads := (name, v) :: !reads) v;
    v
  in
  let query = translate lookup e in
  (query, List.rev !reads)

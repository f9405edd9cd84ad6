open Ent_storage

exception Parse_error of string

type item =
  | Program of Ast.program
  | Stmt of Ast.stmt * Ast.pos

type state = {
  tokens : (Lexer.token * Ast.pos) array;
  mutable pos : int;
  mutable lifted : (Ast.expr * int * bool) list;
      (* every literal token that became an [Ast.Lit] leaf: the leaf,
         the token's index, and whether a '-' negated it *)
}

(* Errors carry the position of the token the parser is looking at
   (clamped: an error raised right after consuming Eof points at it). *)
let fail st fmt =
  let at = snd st.tokens.(min st.pos (Array.length st.tokens - 1)) in
  Format.kasprintf
    (fun s -> raise (Parse_error (Format.asprintf "%a: %s" Ast.pp_pos at s)))
    fmt

let peek st = fst st.tokens.(st.pos)
let peek_pos st = snd st.tokens.(st.pos)
let advance st = st.pos <- st.pos + 1

let next st =
  let tok = peek st in
  advance st;
  tok

let keyword_eq kw = function
  | Lexer.Ident s -> String.uppercase_ascii s = kw
  | _ -> false

let at_keyword st kw = keyword_eq kw (peek st)

let eat_keyword st kw =
  if at_keyword st kw then advance st
  else fail st "expected %s, got %a" kw Lexer.pp_token (peek st)

let eat_tok st tok name =
  if peek st = tok then advance st
  else fail st "expected %s, got %a" name Lexer.pp_token (peek st)

let opt_keyword st kw =
  if at_keyword st kw then begin
    advance st;
    true
  end
  else false

let parse_ident st =
  match next st with
  | Lexer.Ident s -> s
  | tok -> fail st "expected identifier, got %a" Lexer.pp_token tok

(* --- expressions --- *)

(* Date literals are written as strings, as in the paper. *)
let str_value s =
  match Value.parse_date s with
  | Some d -> d
  | None -> Value.Str s

let str_lit s = Ast.Lit (str_value s)

(* [node] is the literal leaf of the token just consumed. *)
let lift st ~negated node =
  st.lifted <- (node, st.pos - 1, negated) :: st.lifted;
  node

let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = parse_multiplicative st in
  match peek st with
  | Lexer.Plus ->
    advance st;
    Ast.Binop (Add, lhs, parse_additive st)
  | Lexer.Minus ->
    advance st;
    Ast.Binop (Sub, lhs, parse_additive st)
  | _ -> lhs

and parse_multiplicative st =
  let lhs = parse_primary_expr st in
  match peek st with
  | Lexer.Star ->
    advance st;
    Ast.Binop (Mul, lhs, parse_multiplicative st)
  | Lexer.Slash ->
    advance st;
    Ast.Binop (Div, lhs, parse_multiplicative st)
  | _ -> lhs

and parse_primary_expr st =
  match next st with
  | Lexer.Int_lit i -> lift st ~negated:false (Ast.Lit (Value.Int i))
  | Lexer.Minus -> (
    match next st with
    | Lexer.Int_lit i -> lift st ~negated:true (Ast.Lit (Value.Int (-i)))
    | tok -> fail st "expected integer after '-', got %a" Lexer.pp_token tok)
  | Lexer.Str_lit s -> lift st ~negated:false (str_lit s)
  | Lexer.Host_var v -> Ast.Host v
  | Lexer.Ident id when String.uppercase_ascii id = "NULL" -> Ast.Lit Value.Null
  | Lexer.Ident id when String.uppercase_ascii id = "TRUE" ->
    Ast.Lit (Value.Bool true)
  | Lexer.Ident id when String.uppercase_ascii id = "FALSE" ->
    Ast.Lit (Value.Bool false)
  | Lexer.Ident id when
      List.mem (String.uppercase_ascii id) [ "COUNT"; "SUM"; "MIN"; "MAX"; "AVG" ]
      && peek st = Lexer.Lparen ->
    let fn =
      match String.uppercase_ascii id with
      | "COUNT" -> Ast.Count
      | "SUM" -> Ast.Sum
      | "MIN" -> Ast.Min
      | "MAX" -> Ast.Max
      | _ -> Ast.Avg
    in
    advance st;
    let e =
      if peek st = Lexer.Star then begin
        if fn <> Ast.Count then fail st "only COUNT may take *";
        advance st;
        Ast.Count_star
      end
      else Ast.Agg (fn, parse_expr st)
    in
    eat_tok st Lexer.Rparen ")";
    e
  | Lexer.Ident id ->
    if peek st = Lexer.Dot then begin
      advance st;
      let col = parse_ident st in
      Ast.Col (Some id, col)
    end
    else Ast.Col (None, id)
  | Lexer.Lparen ->
    let e = parse_expr st in
    eat_tok st Lexer.Rparen ")";
    e
  | tok -> fail st "expected expression, got %a" Lexer.pp_token tok

(* --- conditions --- *)

(* Find the token index just after the parenthesized group starting at
   [st.pos] (which must be a Lparen), to disambiguate "(a, b) IN ..."
   from a parenthesized condition. *)
let index_after_paren_group st =
  let n = Array.length st.tokens in
  let rec go i depth =
    if i >= n then None
    else
      match fst st.tokens.(i) with
      | Lexer.Lparen -> go (i + 1) (depth + 1)
      | Lexer.Rparen -> if depth = 1 then Some (i + 1) else go (i + 1) (depth - 1)
      | _ -> go (i + 1) depth
  in
  go st.pos 0

(* Is the parenthesized group at [st.pos] an expression operand, such
   as "(a + b)" in "(a + b) = c": does an operator or BETWEEN follow
   it? *)
let operand_group st =
  match index_after_paren_group st with
  | None -> false
  | Some after -> (
    match fst st.tokens.(after) with
    | Lexer.Eq | Ne | Lt | Le | Gt | Ge | Plus | Minus | Star | Slash -> true
    | tok -> keyword_eq "BETWEEN" tok)

let rec parse_cond_or st =
  let lhs = parse_cond_and st in
  if opt_keyword st "OR" then Ast.Or (lhs, parse_cond_or st) else lhs

and parse_cond_and st =
  let lhs = parse_cond_not st in
  if opt_keyword st "AND" then Ast.And (lhs, parse_cond_and st) else lhs

and parse_cond_not st =
  if opt_keyword st "NOT" then Ast.Not (parse_cond_not st)
  else parse_cond_atom st

and parse_cond_atom st =
  match peek st with
  | Lexer.Lparen when not (operand_group st) -> (
    match index_after_paren_group st with
    | Some after when keyword_eq "IN" (fst st.tokens.(after)) ->
      (* "(e1, ..., ek) IN ..." *)
      advance st;
      let exprs = parse_expr_list st in
      eat_tok st Lexer.Rparen ")";
      parse_in_tail st exprs
    | _ ->
      advance st;
      let c = parse_cond_or st in
      eat_tok st Lexer.Rparen ")";
      c)
  | _ ->
    let exprs = parse_expr_list st in
    (match exprs with
    | [ e ] when not (at_keyword st "IN") -> parse_cmp_tail st e
    | _ -> parse_in_tail st exprs)

and parse_expr_list st =
  let e = parse_expr st in
  if peek st = Lexer.Comma then begin
    advance st;
    e :: parse_expr_list st
  end
  else [ e ]

and parse_cmp_tail st lhs =
  if at_keyword st "BETWEEN" then begin
    advance st;
    let lo = parse_expr st in
    eat_keyword st "AND";
    let hi = parse_expr st in
    Ast.Between (lhs, lo, hi)
  end
  else
  let op =
    match next st with
    | Lexer.Eq -> Ast.Eq
    | Lexer.Ne -> Ast.Ne
    | Lexer.Lt -> Ast.Lt
    | Lexer.Le -> Ast.Le
    | Lexer.Gt -> Ast.Gt
    | Lexer.Ge -> Ast.Ge
    | tok -> fail st "expected comparison operator, got %a" Lexer.pp_token tok
  in
  Ast.Cmp (op, lhs, parse_expr st)

and parse_in_tail st exprs =
  eat_keyword st "IN";
  if at_keyword st "ANSWER" then begin
    advance st;
    let rel = parse_ident st in
    Ast.In_answer (exprs, rel)
  end
  else begin
    eat_tok st Lexer.Lparen "(";
    if at_keyword st "SELECT" then begin
      advance st;
      let sub = parse_select_after_keyword st in
      eat_tok st Lexer.Rparen ")";
      Ast.In_select (exprs, sub)
    end
    else begin
      (* value list: only the single-expression form *)
      match exprs with
      | [ e ] ->
        let values = parse_expr_list st in
        eat_tok st Lexer.Rparen ")";
        Ast.In_list (e, values)
      | _ -> fail st "tuple IN requires a subquery or ANSWER relation"
    end
  end

(* --- SELECT --- *)

and parse_proj st =
  (* A bare @var projection stays a host-variable expression here; the
     evaluator interprets an *unbound* one in a classical SELECT as the
     Appendix D shorthand "column var AS @var". *)
  let e = parse_expr st in
  if opt_keyword st "AS" then
    match next st with
    | Lexer.Host_var v -> { Ast.pexpr = e; pbind = Some v }
    | tok -> fail st "expected @var after AS, got %a" Lexer.pp_token tok
  else { Ast.pexpr = e; pbind = None }

and parse_proj_list st =
  let p = parse_proj st in
  if peek st = Lexer.Comma then begin
    advance st;
    p :: parse_proj_list st
  end
  else [ p ]

and parse_table_ref st =
  let table = parse_ident st in
  let alias =
    if opt_keyword st "AS" then parse_ident st
    else
      match peek st with
      | Lexer.Ident id
        when not
               (List.mem (String.uppercase_ascii id)
                  [ "WHERE"; "LIMIT"; "CHOOSE"; "ORDER"; "GROUP" ]) ->
        advance st;
        id
      | _ -> table
  in
  (table, alias)

and parse_table_refs st =
  let r = parse_table_ref st in
  if peek st = Lexer.Comma then begin
    advance st;
    r :: parse_table_refs st
  end
  else [ r ]

and parse_select_after_keyword st =
  let distinct = opt_keyword st "DISTINCT" in
  let projs = parse_proj_list st in
  let from = if opt_keyword st "FROM" then parse_table_refs st else [] in
  let where = if opt_keyword st "WHERE" then parse_cond_or st else Ast.True in
  let group_by =
    if opt_keyword st "GROUP" then begin
      eat_keyword st "BY";
      parse_expr_list st
    end
    else []
  in
  let order_by =
    if opt_keyword st "ORDER" then begin
      eat_keyword st "BY";
      let rec keys () =
        let e = parse_expr st in
        let dir =
          if opt_keyword st "DESC" then Ast.Desc
          else begin
            ignore (opt_keyword st "ASC");
            Ast.Asc
          end
        in
        if peek st = Lexer.Comma then begin
          advance st;
          (e, dir) :: keys ()
        end
        else [ (e, dir) ]
      in
      keys ()
    end
    else []
  in
  let limit =
    if opt_keyword st "LIMIT" then
      match next st with
      | Lexer.Int_lit i -> Some i
      | tok -> fail st "expected integer after LIMIT, got %a" Lexer.pp_token tok
    else None
  in
  { Ast.distinct; projs; from; where; group_by; order_by; limit }

and parse_select_tail st ~distinct ~projs =
  let from = if opt_keyword st "FROM" then parse_table_refs st else [] in
  let where = if opt_keyword st "WHERE" then parse_cond_or st else Ast.True in
  let group_by =
    if opt_keyword st "GROUP" then begin
      eat_keyword st "BY";
      parse_expr_list st
    end
    else []
  in
  let order_by =
    if opt_keyword st "ORDER" then begin
      eat_keyword st "BY";
      let rec keys () =
        let e = parse_expr st in
        let dir =
          if opt_keyword st "DESC" then Ast.Desc
          else begin
            ignore (opt_keyword st "ASC");
            Ast.Asc
          end
        in
        if peek st = Lexer.Comma then begin
          advance st;
          (e, dir) :: keys ()
        end
        else [ (e, dir) ]
      in
      keys ()
    end
    else []
  in
  let limit =
    if opt_keyword st "LIMIT" then
      match next st with
      | Lexer.Int_lit i -> Some i
      | tok -> fail st "expected integer after LIMIT, got %a" Lexer.pp_token tok
    else None
  in
  { Ast.distinct; projs; from; where; group_by; order_by; limit }

(* --- entangled SELECT --- *)

and parse_entangled_after_into st projs =
  eat_keyword st "ANSWER";
  let into = parse_ident st in
  if peek st = Lexer.Comma then
    fail st "multiple INTO ANSWER relations are only supported in the IR API";
  let ewhere = if opt_keyword st "WHERE" then parse_cond_or st else Ast.True in
  eat_keyword st "CHOOSE";
  let choose =
    match next st with
    | Lexer.Int_lit i when i >= 1 -> i
    | tok -> fail st "expected positive integer after CHOOSE, got %a" Lexer.pp_token tok
  in
  { Ast.eprojs = projs; into; ewhere; choose }

(* --- statements --- *)

let parse_insert st =
  eat_keyword st "INTO";
  let table = parse_ident st in
  let columns =
    if peek st = Lexer.Lparen then begin
      advance st;
      let rec cols () =
        let c = parse_ident st in
        if peek st = Lexer.Comma then begin
          advance st;
          c :: cols ()
        end
        else [ c ]
      in
      let cs = cols () in
      eat_tok st Lexer.Rparen ")";
      Some cs
    end
    else None
  in
  eat_keyword st "VALUES";
  eat_tok st Lexer.Lparen "(";
  let values = parse_expr_list st in
  eat_tok st Lexer.Rparen ")";
  Ast.Insert { table; columns; values }

let parse_update st =
  let table = parse_ident st in
  eat_keyword st "SET";
  let rec assigns () =
    let col = parse_ident st in
    eat_tok st Lexer.Eq "=";
    let e = parse_expr st in
    if peek st = Lexer.Comma then begin
      advance st;
      (col, e) :: assigns ()
    end
    else [ (col, e) ]
  in
  let set = assigns () in
  let where = if opt_keyword st "WHERE" then parse_cond_or st else Ast.True in
  Ast.Update { table; set; where }

let parse_delete st =
  eat_keyword st "FROM";
  let table = parse_ident st in
  let where = if opt_keyword st "WHERE" then parse_cond_or st else Ast.True in
  Ast.Delete { table; where }

let col_type_of_name st name =
  match String.uppercase_ascii name with
  | "INT" | "INTEGER" -> Schema.T_int
  | "STRING" | "VARCHAR" | "TEXT" | "CHAR" -> Schema.T_str
  | "DATE" -> Schema.T_date
  | "BOOL" | "BOOLEAN" -> Schema.T_bool
  | "ANY" -> Schema.T_any
  | _ -> fail st "unknown column type %s" name

let parse_create st =
  let ordered = opt_keyword st "ORDERED" in
  if opt_keyword st "INDEX" then begin
    eat_keyword st "ON";
    let table = parse_ident st in
    eat_tok st Lexer.Lparen "(";
    let rec cols () =
      let c = parse_ident st in
      if peek st = Lexer.Comma then begin
        advance st;
        c :: cols ()
      end
      else [ c ]
    in
    let columns = cols () in
    eat_tok st Lexer.Rparen ")";
    if ordered && List.length columns <> 1 then
      fail st "ordered indexes cover exactly one column";
    Ast.Create_index { table; columns; ordered }
  end
  else begin
  if ordered then fail st "ORDERED only applies to CREATE INDEX";
  eat_keyword st "TABLE";
  let table = parse_ident st in
  eat_tok st Lexer.Lparen "(";
  let rec cols () =
    let name = parse_ident st in
    let ty = col_type_of_name st (parse_ident st) in
    if peek st = Lexer.Comma then begin
      advance st;
      (name, ty) :: cols ()
    end
    else [ (name, ty) ]
  in
  let columns = cols () in
  eat_tok st Lexer.Rparen ")";
  Ast.Create_table { table; columns }
  end

let parse_set st =
  match next st with
  | Lexer.Host_var v ->
    eat_tok st Lexer.Eq "=";
    Ast.Set_var (v, parse_expr st)
  | tok -> fail st "expected @var after SET, got %a" Lexer.pp_token tok

let parse_statement st =
  match peek st with
  | Lexer.Ident kw -> (
    advance st;
    match String.uppercase_ascii kw with
    | "SELECT" ->
      let distinct = opt_keyword st "DISTINCT" in
      let projs = parse_proj_list st in
      if opt_keyword st "INTO" then begin
        if distinct then fail st "DISTINCT is not meaningful on an entangled query";
        Ast.Entangled (parse_entangled_after_into st projs)
      end
      else begin
        let rest = parse_select_tail st ~distinct ~projs in
        Ast.Select rest
      end
    | "INSERT" -> parse_insert st
    | "UPDATE" -> parse_update st
    | "DELETE" -> parse_delete st
    | "CREATE" -> parse_create st
    | "DROP" ->
      eat_keyword st "TABLE";
      Ast.Drop_table (parse_ident st)
    | "SET" -> parse_set st
    | "ROLLBACK" -> Ast.Rollback
    | other -> fail st "unexpected statement keyword %s" other)
  | tok -> fail st "expected statement, got %a" Lexer.pp_token tok

(* --- transaction blocks & scripts --- *)

let timeout_seconds st amount unit_name =
  let amount = float_of_int amount in
  match String.uppercase_ascii unit_name with
  | "SECOND" | "SECONDS" -> amount
  | "MINUTE" | "MINUTES" -> amount *. 60.
  | "HOUR" | "HOURS" -> amount *. 3600.
  | "DAY" | "DAYS" -> amount *. 86400.
  | other -> fail st "unknown timeout unit %s" other

let parse_program_after_begin st =
  eat_keyword st "TRANSACTION";
  let timeout =
    if opt_keyword st "WITH" then begin
      eat_keyword st "TIMEOUT";
      match next st with
      | Lexer.Int_lit amount -> Some (timeout_seconds st amount (parse_ident st))
      | tok -> fail st "expected integer after TIMEOUT, got %a" Lexer.pp_token tok
    end
    else None
  in
  eat_tok st Lexer.Semi ";";
  let rec stmts () =
    if at_keyword st "COMMIT" then begin
      advance st;
      if peek st = Lexer.Semi then advance st;
      []
    end
    else begin
      let at = peek_pos st in
      let s = parse_statement st in
      eat_tok st Lexer.Semi ";";
      (s, at) :: stmts ()
    end
  in
  { Ast.timeout; body = stmts () }

let make_state input = { tokens = Lexer.tokenize input; pos = 0; lifted = [] }

let expect_eof st =
  if peek st = Lexer.Semi then advance st;
  match peek st with
  | Lexer.Eof -> ()
  | tok -> fail st "trailing input: %a" Lexer.pp_token tok

let parse_stmt input =
  let st = make_state input in
  let s = parse_statement st in
  expect_eof st;
  s

let program st =
  eat_keyword st "BEGIN";
  let p = parse_program_after_begin st in
  (match peek st with
  | Lexer.Eof -> ()
  | tok -> fail st "trailing input after COMMIT: %a" Lexer.pp_token tok);
  p

(* --- statement shapes ---

   A template is a parsed program with its literal leaves turned into
   holes. An instance rebuilds only the nodes on the paths from the
   root to its holes and shares every other subtree with the template.
   A literal the parser consumed as syntax (LIMIT, CHOOSE, TIMEOUT) is
   no hole: its value is part of the shape, checked on every hit.

   The template's statements get their plan keys from {!Eval.plans},
   which lists their literal leaves in the order the plans read them;
   an instance's parameters are its hole values in that order. The
   values are those of the instance's own [Lit] nodes. *)

type 'a part =
  | Same of 'a  (* no hole below: shared as is *)
  | Built of (Value.t array -> 'a)  (* rebuilt from the instance's hole values *)

let get part lits =
  match part with
  | Same x -> x
  | Built f -> f lits

let same = function Same _ -> true | Built _ -> false
let map1 x a k = if same a then Same x else Built (fun l -> k (get a l))

let map2 x a b k =
  if same a && same b then Same x else Built (fun l -> k (get a l) (get b l))

let map3 x a b c k =
  if same a && same b && same c then Same x
  else Built (fun l -> k (get a l) (get b l) (get c l))

let map_list x parts =
  if List.for_all same parts then Same x
  else Built (fun l -> List.map (fun p -> get p l) parts)

(* [holes]: each lifted leaf with its literal's index in the text's
   literals and whether it was negated. *)
let rec p_expr holes (e : Ast.expr) =
  match e with
  | Lit _ -> (
    match List.find_opt (fun (leaf, _, _) -> leaf == e) holes with
    | None -> Same e
    | Some (_, k, _) -> Built (fun values -> Ast.Lit values.(k)))
  | Col _ | Host _ | Count_star -> Same e
  | Binop (op, a, b) ->
    map2 e (p_expr holes a) (p_expr holes b) (fun a b -> Ast.Binop (op, a, b))
  | Agg (fn, a) -> map1 e (p_expr holes a) (fun a -> Ast.Agg (fn, a))

and p_exprs holes es = map_list es (List.map (p_expr holes) es)

let rec p_cond holes (c : Ast.cond) =
  match c with
  | True -> Same c
  | Cmp (op, a, b) ->
    map2 c (p_expr holes a) (p_expr holes b) (fun a b -> Ast.Cmp (op, a, b))
  | And (a, b) -> map2 c (p_cond holes a) (p_cond holes b) (fun a b -> Ast.And (a, b))
  | Or (a, b) -> map2 c (p_cond holes a) (p_cond holes b) (fun a b -> Ast.Or (a, b))
  | Not a -> map1 c (p_cond holes a) (fun a -> Ast.Not a)
  | In_select (es, sub) ->
    map2 c (p_exprs holes es) (p_select holes sub) (fun es sub -> Ast.In_select (es, sub))
  | In_list (e, vs) ->
    map2 c (p_expr holes e) (p_exprs holes vs) (fun e vs -> Ast.In_list (e, vs))
  | Between (e, lo, hi) ->
    map3 c (p_expr holes e) (p_expr holes lo) (p_expr holes hi) (fun e lo hi ->
        Ast.Between (e, lo, hi))
  | In_answer (es, rel) -> map1 c (p_exprs holes es) (fun es -> Ast.In_answer (es, rel))

and p_projs holes projs =
  map_list projs
    (List.map
       (fun (p : Ast.proj) -> map1 p (p_expr holes p.pexpr) (fun pexpr -> { p with pexpr }))
       projs)

and p_select holes (s : Ast.select) =
  let projs = p_projs holes s.projs in
  let where = p_cond holes s.where in
  let group_by = p_exprs holes s.group_by in
  let order_by =
    map_list s.order_by
      (List.map (fun ((e, dir) as o) -> map1 o (p_expr holes e) (fun e -> (e, dir))) s.order_by)
  in
  if same projs && same where && same group_by && same order_by then Same s
  else
    Built
      (fun l ->
        { s with
          projs = get projs l;
          where = get where l;
          group_by = get group_by l;
          order_by = get order_by l })

let p_stmt holes (stmt : Ast.stmt) =
  match stmt with
  | Select sel -> map1 stmt (p_select holes sel) (fun sel -> Ast.Select sel)
  | Insert ins ->
    map1 stmt (p_exprs holes ins.values) (fun values -> Ast.Insert { ins with values })
  | Update { table; set; where } ->
    let set' =
      map_list set
        (List.map (fun ((col, e) as a) -> map1 a (p_expr holes e) (fun e -> (col, e))) set)
    in
    map2 stmt set' (p_cond holes where) (fun set where -> Ast.Update { table; set; where })
  | Delete { table; where } ->
    map1 stmt (p_cond holes where) (fun where -> Ast.Delete { table; where })
  | Set_var (v, e) -> map1 stmt (p_expr holes e) (fun e -> Ast.Set_var (v, e))
  | Entangled en ->
    map2 stmt (p_projs holes en.eprojs) (p_cond holes en.ewhere) (fun eprojs ewhere ->
        Ast.Entangled { en with eprojs; ewhere })
  | Create_table _ | Create_index _ | Drop_table _ | Rollback -> Same stmt

(* What literal [k] of a text is: syntax, or a hole (negated or not). *)
type lit_kind =
  | Syntax
  | Hole
  | Negated_hole

(* Where parameter [i] of a statement's plan comes from. *)
type param =
  | Lit_of of int  (* the value of hole [k] *)
  | Fixed of Value.t  (* a keyword literal (NULL, TRUE, FALSE) *)

type template = {
  keyed : (int * Lexer.token) list;  (* literals consumed as syntax, by index *)
  kinds : lit_kind array;  (* by literal index *)
  timeout : float option;
  body : (Ast.stmt part * Ast.pos) list;  (* positions in the template's text *)
  plans : Eval.template array;  (* by statement *)
  params : param array;  (* the statements' parameters, in plan order *)
}

(* The template of [p], parsed from [st] whose text has shape [sh].
   Statement [i] of a program starts right after its [i]th [;] (the
   header's is the first): the parser consumes no other [;] before
   [COMMIT], so its position is [sh.starts.(i)]. *)
let template (sh : Lexer.shape) st (p : Ast.program) =
  let index = Array.make (Array.length st.tokens) (-1) in
  let n = ref 0 in
  Array.iteri
    (fun i (tok, _) ->
      match tok with
      | Lexer.Int_lit _ | Lexer.Str_lit _ ->
        index.(i) <- !n;
        incr n
      | _ -> ())
    st.tokens;
  let holes = List.map (fun (leaf, i, negated) -> (leaf, index.(i), negated)) st.lifted in
  let kinds = Array.make (Array.length sh.lits) Syntax in
  List.iter (fun (_, k, negated) -> kinds.(k) <- (if negated then Negated_hole else Hole)) holes;
  let keyed =
    List.filter (fun (k, _) -> kinds.(k) = Syntax)
      (List.mapi (fun k lit -> (k, lit)) (Array.to_list sh.lits))
  in
  let param leaf =
    match List.find_opt (fun (hole, _, _) -> hole == leaf) holes, leaf with
    | Some (_, k, _), _ -> Lit_of k
    | None, Ast.Lit v -> Fixed v
    | None, _ -> assert false
  in
  let plans, leaves = Eval.plans (List.map fst p.body) in
  { keyed;
    kinds;
    timeout = p.timeout;
    body = List.map (fun (stmt, at) -> (p_stmt holes stmt, at)) p.body;
    plans;
    params = Array.of_list (List.map param leaves) }

module Shapes = struct
  type t = {
    templates : (string, template) Hashtbl.t;
    values : (Lexer.token, Value.t) Hashtbl.t;
        (* literal values, shared by the programs that hold them *)
  }

  (* A table that reaches this many templates, or literal values,
     starts over; a workload has a handful of templates, and its
     literals repeat (user ids, cities). *)
  let max_templates = 1024
  let max_values = 65_536

  let create () = { templates = Hashtbl.create 16; values = Hashtbl.create 64 }

  let value t lit =
    match Hashtbl.find_opt t.values lit with
    | Some v -> v
    | None ->
      if Hashtbl.length t.values >= max_values then Hashtbl.reset t.values;
      let v =
        match lit with
        | Lexer.Int_lit i -> Value.Int i
        | Lexer.Str_lit s -> str_value s
        | _ -> assert false
      in
      Hashtbl.add t.values lit v;
      v
end

(* The value of every hole of a text of [t]'s shape, by literal index. *)
let hole_values tbl t (sh : Lexer.shape) =
  Array.mapi
    (fun k lit ->
      match t.kinds.(k), lit with
      | Syntax, _ -> Value.Null
      | Hole, _ -> Shapes.value tbl lit
      | Negated_hole, Lexer.Int_lit i -> Value.Int (-i)
      | Negated_hole, _ -> assert false)
    sh.lits

(* The program's plan parameters. *)
let plan_params t values =
  Array.map
    (function
      | Lit_of k -> values.(k)
      | Fixed v -> v)
    t.params

(* Positions come from the instance's text: a longer literal, or a
   string literal holding a newline, moves the statements after it.
   Where they did not move, the template's are shared. *)
let instantiate t (sh : Lexer.shape) values =
  let body =
    List.mapi
      (fun i (part, (at : Ast.pos)) ->
        let here = sh.starts.(i) in
        (get part values, if here.line = at.line && here.col = at.col then at else here))
      t.body
  in
  { Ast.timeout = t.timeout; body }

type shaped = {
  program : Ast.program;
  plans : Eval.template array;
  params : Value.t array;
}

let parse_shaped tbl input =
  (* [Lexer.shape] runs the scan [tokenize] would, so a text it rejects
     raises here exactly what the full parse raises. *)
  let sh = Lexer.shape input in
  let fits t = List.for_all (fun (k, v) -> sh.lits.(k) = v) t.keyed in
  match List.find_opt fits (Hashtbl.find_all tbl.Shapes.templates sh.key) with
  | Some t ->
    let values = hole_values tbl t sh in
    { program = instantiate t sh values; plans = t.plans; params = plan_params t values }
  | None ->
    let st = make_state input in
    let p = program st in
    let t = template sh st p in
    if Hashtbl.length tbl.templates >= Shapes.max_templates then Hashtbl.reset tbl.templates;
    Hashtbl.add tbl.templates sh.key t;
    { program = p; plans = t.plans; params = plan_params t (hole_values tbl t sh) }

let parse_program input = program (make_state input)

let parse_script input =
  let st = make_state input in
  let rec items () =
    match peek st with
    | Lexer.Eof -> []
    | Lexer.Semi ->
      advance st;
      items ()
    | _ ->
      if at_keyword st "BEGIN" then begin
        advance st;
        let p = parse_program_after_begin st in
        Program p :: items ()
      end
      else begin
        let at = peek_pos st in
        let s = parse_statement st in
        (match peek st with
        | Lexer.Semi -> advance st
        | Lexer.Eof -> ()
        | tok -> fail st "expected ';', got %a" Lexer.pp_token tok);
        Stmt (s, at) :: items ()
      end
  in
  items ()

let parse_cond input =
  let st = make_state input in
  let c = parse_cond_or st in
  expect_eof st;
  c

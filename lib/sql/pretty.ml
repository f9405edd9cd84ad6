open Ent_storage

let pp_value ppf (v : Value.t) =
  match v with
  | Str s -> Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Date _ -> Format.fprintf ppf "'%s'" (Value.to_string v)
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")
  | Int i -> Format.pp_print_int ppf i

let binop_symbol = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"

let cmp_symbol = function
  | Ast.Eq -> "="
  | Ast.Ne -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let rec pp_expr ppf (e : Ast.expr) =
  match e with
  | Lit v -> pp_value ppf v
  | Col (None, name) -> Format.pp_print_string ppf name
  | Col (Some q, name) -> Format.fprintf ppf "%s.%s" q name
  | Host v -> Format.fprintf ppf "@%s" v
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Agg (fn, arg) ->
    let name =
      match fn with
      | Ast.Count -> "COUNT"
      | Ast.Sum -> "SUM"
      | Ast.Min -> "MIN"
      | Ast.Max -> "MAX"
      | Ast.Avg -> "AVG"
    in
    Format.fprintf ppf "%s(%a)" name pp_expr arg
  | Count_star -> Format.pp_print_string ppf "COUNT(*)"

let pp_comma_list pp ppf xs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp ppf xs

let rec pp_cond ppf (c : Ast.cond) =
  match c with
  | True -> Format.pp_print_string ppf "TRUE = TRUE"
  | Cmp (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (cmp_symbol op) pp_expr b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_cond a pp_cond b
  | Not a -> Format.fprintf ppf "NOT (%a)" pp_cond a
  | In_select (exprs, sub) ->
    Format.fprintf ppf "(%a) IN (%a)" (pp_comma_list pp_expr) exprs pp_select sub
  | In_list (e, values) ->
    Format.fprintf ppf "%a IN (%a)" pp_expr e (pp_comma_list pp_expr) values
  | Between (e, lo, hi) ->
    Format.fprintf ppf "%a BETWEEN %a AND %a" pp_expr e pp_expr lo pp_expr hi
  | In_answer (exprs, rel) ->
    Format.fprintf ppf "(%a) IN ANSWER %s" (pp_comma_list pp_expr) exprs rel

and pp_proj ppf (p : Ast.proj) =
  match p.pbind with
  | None -> pp_expr ppf p.pexpr
  | Some v -> Format.fprintf ppf "%a AS @%s" pp_expr p.pexpr v

and pp_select ppf (sel : Ast.select) =
  Format.fprintf ppf "SELECT %s%a"
    (if sel.distinct then "DISTINCT " else "")
    (pp_comma_list pp_proj) sel.projs;
  (match sel.from with
  | [] -> ()
  | from ->
    let pp_ref ppf (table, alias) =
      if table = alias then Format.pp_print_string ppf table
      else Format.fprintf ppf "%s AS %s" table alias
    in
    Format.fprintf ppf " FROM %a" (pp_comma_list pp_ref) from);
  (match sel.where with
  | True -> ()
  | w -> Format.fprintf ppf " WHERE %a" pp_cond w);
  (match sel.group_by with
  | [] -> ()
  | keys -> Format.fprintf ppf " GROUP BY %a" (pp_comma_list pp_expr) keys);
  (match sel.order_by with
  | [] -> ()
  | keys ->
    let pp_key ppf (e, dir) =
      Format.fprintf ppf "%a%s" pp_expr e
        (match dir with
        | Ast.Asc -> ""
        | Ast.Desc -> " DESC")
    in
    Format.fprintf ppf " ORDER BY %a" (pp_comma_list pp_key) keys);
  match sel.limit with
  | None -> ()
  | Some l -> Format.fprintf ppf " LIMIT %d" l

let pp_stmt ppf (stmt : Ast.stmt) =
  match stmt with
  | Select sel -> pp_select ppf sel
  | Insert { table; columns; values } ->
    Format.fprintf ppf "INSERT INTO %s" table;
    (match columns with
    | Some cols ->
      Format.fprintf ppf " (%a)" (pp_comma_list Format.pp_print_string) cols
    | None -> ());
    Format.fprintf ppf " VALUES (%a)" (pp_comma_list pp_expr) values
  | Update { table; set; where } ->
    let pp_assign ppf (col, e) = Format.fprintf ppf "%s = %a" col pp_expr e in
    Format.fprintf ppf "UPDATE %s SET %a" table (pp_comma_list pp_assign) set;
    (match where with
    | True -> ()
    | w -> Format.fprintf ppf " WHERE %a" pp_cond w)
  | Delete { table; where } ->
    Format.fprintf ppf "DELETE FROM %s" table;
    (match where with
    | True -> ()
    | w -> Format.fprintf ppf " WHERE %a" pp_cond w)
  | Create_table { table; columns } ->
    let pp_col ppf (name, ty) =
      Format.fprintf ppf "%s %s" name (String.uppercase_ascii (Schema.type_name ty))
    in
    Format.fprintf ppf "CREATE TABLE %s (%a)" table (pp_comma_list pp_col) columns
  | Create_index { table; columns; ordered } ->
    Format.fprintf ppf "CREATE %sINDEX ON %s (%a)"
      (if ordered then "ORDERED " else "")
      table
      (pp_comma_list Format.pp_print_string) columns
  | Drop_table table -> Format.fprintf ppf "DROP TABLE %s" table
  | Set_var (v, e) -> Format.fprintf ppf "SET @%s = %a" v pp_expr e
  | Entangled e ->
    Format.fprintf ppf "SELECT %a INTO ANSWER %s" (pp_comma_list pp_proj)
      e.eprojs e.into;
    (match e.ewhere with
    | True -> ()
    | w -> Format.fprintf ppf " WHERE %a" pp_cond w);
    Format.fprintf ppf " CHOOSE %d" e.choose
  | Rollback -> Format.pp_print_string ppf "ROLLBACK"

let pp_program ppf (p : Ast.program) =
  Format.fprintf ppf "BEGIN TRANSACTION";
  (match p.timeout with
  | Some seconds -> Format.fprintf ppf " WITH TIMEOUT %d SECONDS" (int_of_float seconds)
  | None -> ());
  Format.fprintf ppf ";@\n";
  List.iter (fun (s, _) -> Format.fprintf ppf "%a;@\n" pp_stmt s) p.body;
  Format.fprintf ppf "COMMIT;"

let stmt_to_string s = Format.asprintf "%a" pp_stmt s

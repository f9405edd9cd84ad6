open Ent_storage

exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type env = (string, Value.t) Hashtbl.t

let fresh_env () : env = Hashtbl.create 8

(* Read paths are sequences: rows are produced lazily, so LIMIT /
   early-exit consumers stop pulling (and stop paying per-row costs)
   as soon as they are done, and no intermediate (id, row) list is
   materialized. Sequences carry interposed effects (metrics, row
   locks); consume each one at most once. *)
type access = {
  schema_of : string -> Schema.t;
  scan : string -> (int * Tuple.t) Seq.t;
  lookup : string -> positions:int list -> Value.t list -> (int * Tuple.t) Seq.t;
  insert : string -> Value.t array -> int;
  update : string -> int -> Value.t array -> unit;
  delete : string -> int -> unit;
  create : string -> Schema.t -> unit;
  create_index : string -> string list -> unit;
  create_ordered_index : string -> string -> unit;
  range :
    string ->
    position:int ->
    lo:Ordered_index.bound ->
    hi:Ordered_index.bound ->
    (int * Tuple.t) Seq.t;
  has_range : string -> int -> bool;
  drop : string -> unit;
  catalog : Catalog.t;
}

let direct_access catalog =
  let table name =
    match Catalog.find catalog name with
    | Some t -> t
    | None -> fail "unknown table %s" name
  in
  {
    schema_of = (fun name -> Table.schema (table name));
    scan = (fun name -> Table.to_seq (table name));
    lookup =
      (fun name ~positions key -> Table.lookup_seq (table name) ~positions key);
    insert = (fun name row -> Table.insert (table name) row);
    update = (fun name id row -> ignore (Table.update (table name) id row));
    delete = (fun name id -> ignore (Table.delete (table name) id));
    create = (fun name schema -> ignore (Catalog.create_table catalog name schema));
    create_index =
      (fun name columns ->
        let t = table name in
        let schema = Table.schema t in
        let positions =
          List.map
            (fun c ->
              if Schema.mem schema c then Schema.index_of schema c
              else fail "CREATE INDEX: unknown column %s on %s" c name)
            columns
        in
        Table.add_index t ~positions);
    create_ordered_index =
      (fun name column ->
        let t = table name in
        let schema = Table.schema t in
        if not (Schema.mem schema column) then
          fail "CREATE ORDERED INDEX: unknown column %s on %s" column name;
        Table.add_ordered_index t ~position:(Schema.index_of schema column));
    range =
      (fun name ~position ~lo ~hi ->
        Table.range_lookup_seq (table name) ~position ~lo ~hi);
    has_range = (fun name position -> Table.has_ordered_index (table name) ~position);
    drop = (fun name -> Catalog.drop catalog name);
    catalog;
  }

type outcome =
  | Rows of Value.t array list
  | Affected of int
  | Created

(* --- shapes and literal lifting ---

   One walk over a statement hashes its shape — every constructor,
   name and LIMIT, with each literal reduced to a slot — and collects
   the literal values in walk order. Statements that differ only in
   their literals have the same shape and so share a plan; the
   collected values are the plan's parameters. A cached plan keeps the
   statement it was compiled from, and a hash hit is confirmed by
   comparing shapes ({!same_stmt} and friends below). With [number] set
   (only when a plan is about to be compiled) the walk also rebuilds
   the tree with literal [i] replaced by [Lit (Int i)], the form the
   compiler reads: both modes run this code, so parameter slots and
   lifted literals agree by construction. *)

type walk = {
  mutable hash : int;
  mutable lits : Value.t list;  (* newest first *)
  mutable n_lits : int;
  mutable bare : int;  (* bare [@v] projections seen *)
  mutable bound : int;  (* bit [i]: the [i]th bare projection's [@v] is bound *)
  number : bool;
}

let walk ~number = { hash = 0; lits = []; n_lits = 0; bare = 0; bound = 0; number }

let mix w x = w.hash <- (w.hash * 31) + x
let tag w c = mix w (Char.code c)
let name w s = mix w (Hashtbl.hash s)

(* [bound] holds one bit per bare projection; a statement with more
   than this many is compiled afresh every time. *)
let max_bare = Sys.int_size - 2

(* Lists walk in order; only numbering rebuilds them. *)
let rec w_map w f = function
  | [] -> []
  | x :: rest ->
    let x' = f w x in
    x' :: w_map w f rest

let rec w_iter w f = function
  | [] -> ()
  | x :: rest ->
    ignore (f w x);
    w_iter w f rest

let w_list w f l =
  tag w '[';
  let l' = if w.number then w_map w f l else (w_iter w f l; l) in
  tag w ']';
  l'

let rec w_expr w (e : Ast.expr) : Ast.expr =
  match e with
  | Lit v ->
    tag w 'l';
    let i = w.n_lits in
    w.n_lits <- i + 1;
    w.lits <- v :: w.lits;
    if w.number then Lit (Value.Int i) else e
  | Col (q, n) ->
    (match q with
    | None -> tag w 'c'
    | Some alias ->
      tag w 'q';
      name w alias);
    name w n;
    e
  | Host n ->
    tag w 'h';
    name w n;
    e
  | Binop (op, a, b) ->
    tag w (match op with Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/');
    let a' = w_expr w a in
    let b' = w_expr w b in
    if w.number then Binop (op, a', b') else e
  | Agg (fn, arg) -> (
    tag w (match fn with Count -> 'N' | Sum -> 'S' | Min -> 'm' | Max -> 'M' | Avg -> 'A');
    match arg with
    | None ->
      tag w '*';
      e
    | Some a ->
      tag w '(';
      let a' = w_expr w a in
      if w.number then Agg (fn, Some a') else e)

let cmp_tag : Ast.cmp -> char = function
  | Eq -> '=' | Ne -> '!' | Lt -> '<' | Le -> '{' | Gt -> '>' | Ge -> '}'

let rec w_cond w (c : Ast.cond) : Ast.cond =
  match c with
  | True ->
    tag w 'T';
    c
  | Cmp (op, a, b) ->
    tag w (cmp_tag op);
    let a' = w_expr w a in
    let b' = w_expr w b in
    if w.number then Cmp (op, a', b') else c
  | And (a, b) ->
    tag w '&';
    let a' = w_cond w a in
    let b' = w_cond w b in
    if w.number then And (a', b') else c
  | Or (a, b) ->
    tag w '|';
    let a' = w_cond w a in
    let b' = w_cond w b in
    if w.number then Or (a', b') else c
  | Not a ->
    tag w '~';
    let a' = w_cond w a in
    if w.number then Not a' else c
  | In_select (es, sub) ->
    tag w 'I';
    let es' = w_list w w_expr es in
    let sub' = w_select w sub in
    if w.number then In_select (es', sub') else c
  | In_list (e, vs) ->
    tag w 'i';
    let e' = w_expr w e in
    let vs' = w_list w w_expr vs in
    if w.number then In_list (e', vs') else c
  | Between (e, lo, hi) ->
    tag w 'B';
    let e' = w_expr w e in
    let lo' = w_expr w lo in
    let hi' = w_expr w hi in
    if w.number then Between (e', lo', hi') else c
  | In_answer (es, rel) ->
    tag w 'a';
    let es' = w_list w w_expr es in
    name w rel;
    if w.number then In_answer (es', rel) else c

(* [bare] is the environment of a top-level classical SELECT with a
   FROM clause, whose bare [@v] projections follow the Appendix D
   shorthand: unbound, [@v] means [v AS @v]. Which of them are bound
   is part of the key, and the numbered tree carries the rewrite. *)
and w_select ?bare w (s : Ast.select) : Ast.select =
  tag w (if s.distinct then 'D' else 's');
  let bare = match s.from with [] -> None | _ :: _ -> bare in
  let projs = w_list w (w_proj bare) s.projs in
  let from =
    w_list w
      (fun w ((table, alias) as t) ->
        name w table;
        name w alias;
        t)
      s.from
  in
  let where = w_cond w s.where in
  let group_by = w_list w w_expr s.group_by in
  let order_by =
    w_list w
      (fun w ((e, dir) as o) ->
        tag w (match dir with Ast.Asc -> 'a' | Desc -> 'd');
        let e' = w_expr w e in
        if w.number then (e', dir) else o)
      s.order_by
  in
  (match s.limit with
  | None -> tag w '.'
  | Some l ->
    tag w '#';
    mix w l);
  if w.number then { s with projs; from; where; group_by; order_by } else s

and w_proj bare w (p : Ast.proj) : Ast.proj =
  match p.pexpr, p.pbind, bare with
  | Host v, None, Some env ->
    let i = w.bare in
    w.bare <- i + 1;
    if Hashtbl.mem env v then begin
      if i < max_bare then w.bound <- w.bound lor (1 lsl i);
      tag w 'b';
      name w v;
      p
    end
    else begin
      tag w 'u';
      name w v;
      if w.number then { pexpr = Col (None, v); pbind = Some v } else p
    end
  | _ ->
    tag w 'p';
    let pexpr = w_expr w p.pexpr in
    (match p.pbind with
    | None -> tag w '-'
    | Some v ->
      tag w '@';
      name w v);
    if w.number then { p with pexpr } else p

(* The statements that run through plans; DDL and the transaction
   manager's statements never reach this walk. *)
let w_stmt env w (stmt : Ast.stmt) : Ast.stmt =
  match stmt with
  | Select sel ->
    tag w 'Q';
    let sel' = w_select ~bare:env w sel in
    if w.number then Select sel' else stmt
  | Insert { table; columns; values } ->
    tag w 'C';
    name w table;
    (match columns with
    | None -> tag w '.'
    | Some cols -> ignore (w_list w (fun w c -> name w c; c) cols));
    let values' = w_list w w_expr values in
    if w.number then Insert { table; columns; values = values' } else stmt
  | Update { table; set; where } ->
    tag w 'U';
    name w table;
    let set' =
      w_list w
        (fun w ((col, e) as s) ->
          name w col;
          let e' = w_expr w e in
          if w.number then (col, e') else s)
        set
    in
    let where' = w_cond w where in
    if w.number then Update { table; set = set'; where = where' } else stmt
  | Delete { table; where } ->
    tag w 'X';
    name w table;
    let where' = w_cond w where in
    if w.number then Delete { table; where = where' } else stmt
  | Set_var (v, e) ->
    tag w 'V';
    name w v;
    let e' = w_expr w e in
    if w.number then Set_var (v, e') else stmt
  | Create_table _ | Create_index _ | Drop_table _ | Entangled _ | Rollback ->
    invalid_arg "Eval: statement has no plan"

(* Same shape: equal up to literal values. Whether bare projections are
   bound is compared separately, through [walk.bound]. *)
let rec same_expr (a : Ast.expr) (b : Ast.expr) =
  a == b
  ||
  match a, b with
  | Lit _, Lit _ -> true
  | Col (qa, na), Col (qb, nb) -> Option.equal String.equal qa qb && String.equal na nb
  | Host na, Host nb -> String.equal na nb
  | Binop (oa, a1, a2), Binop (ob, b1, b2) -> oa = ob && same_expr a1 b1 && same_expr a2 b2
  | Agg (fa, xa), Agg (fb, xb) -> fa = fb && Option.equal same_expr xa xb
  | (Lit _ | Col _ | Host _ | Binop _ | Agg _), _ -> false

let rec same_cond (a : Ast.cond) (b : Ast.cond) =
  a == b
  ||
  match a, b with
  | True, True -> true
  | Cmp (oa, a1, a2), Cmp (ob, b1, b2) -> oa = ob && same_expr a1 b1 && same_expr a2 b2
  | And (a1, a2), And (b1, b2) | Or (a1, a2), Or (b1, b2) -> same_cond a1 b1 && same_cond a2 b2
  | Not a1, Not b1 -> same_cond a1 b1
  | In_select (ea, sa), In_select (eb, sb) -> List.equal same_expr ea eb && same_select sa sb
  | In_list (ea, va), In_list (eb, vb) -> same_expr ea eb && List.equal same_expr va vb
  | Between (ea, la, ha), Between (eb, lb, hb) ->
    same_expr ea eb && same_expr la lb && same_expr ha hb
  | In_answer (ea, ra), In_answer (eb, rb) -> List.equal same_expr ea eb && String.equal ra rb
  | (True | Cmp _ | And _ | Or _ | Not _ | In_select _ | In_list _ | Between _ | In_answer _), _
    -> false

and same_select (a : Ast.select) (b : Ast.select) =
  a == b
  || a.distinct = b.distinct
     && List.equal
          (fun (pa : Ast.proj) (pb : Ast.proj) ->
            same_expr pa.pexpr pb.pexpr && Option.equal String.equal pa.pbind pb.pbind)
          a.projs b.projs
     && List.equal
          (fun (ta, aa) (tb, ab) -> String.equal ta tb && String.equal aa ab)
          a.from b.from
     && same_cond a.where b.where
     && List.equal same_expr a.group_by b.group_by
     && List.equal (fun (ea, da) (eb, db) -> da = db && same_expr ea eb) a.order_by b.order_by
     && a.limit = b.limit

let same_stmt (a : Ast.stmt) (b : Ast.stmt) =
  a == b
  ||
  match a, b with
  | Select sa, Select sb -> same_select sa sb
  | Insert ia, Insert ib ->
    String.equal ia.table ib.table
    && Option.equal (List.equal String.equal) ia.columns ib.columns
    && List.equal same_expr ia.values ib.values
  | Update ua, Update ub ->
    String.equal ua.table ub.table
    && List.equal (fun (ca, ea) (cb, eb) -> String.equal ca cb && same_expr ea eb) ua.set ub.set
    && same_cond ua.where ub.where
  | Delete da, Delete db -> String.equal da.table db.table && same_cond da.where db.where
  | Set_var (va, ea), Set_var (vb, eb) -> String.equal va vb && same_expr ea eb
  | ( ( Select _ | Insert _ | Update _ | Delete _ | Set_var _ | Create_table _
      | Create_index _ | Drop_table _ | Entangled _ | Rollback ),
      _ ) -> false

(* --- plans ---

   A plan is the statement turned into closures over a run context and
   a frame. Every column reference was resolved at compile time to a
   fixed (scope depth, tuple slot), or to the [?var] fallback when no
   FROM scope has the name; each FROM table's index probe is fixed;
   literals read parameter slots. The frame holds the row bound at
   each scope depth: outer SELECTs fill the low slots, the subqueries
   they run the slots above, so one frame per run serves every nesting
   level. *)

type frame = Tuple.t array

type ctx = {
  access : access;
  env : env;
  var : (string -> Value.t option) option;
  params : Value.t array;
}

(* One FROM table in scope at compile time. A table whose schema could
   not be read (and every table after it in the same FROM) has no
   columns: nothing evaluated under it can run, because the join raises
   before binding it. *)
type entry = {
  alias : string;
  schema : Schema.t;
  depth : int;
}

let no_columns = Schema.make []

type source =
  | Unknown of string  (* [schema_of]'s error, raised when the join gets here *)
  | Scan
  | Lookup of int list * (ctx -> frame -> Value.t) list
  | Range of int * (ctx -> frame -> Ordered_index.bound) * (ctx -> frame -> Ordered_index.bound)

type step = {
  table : string;
  entry : entry;  (* its alias, schema and frame slot *)
  source : source;
}

type select_plan = {
  steps : step array;  (* the top-level FROM, in join order *)
  run : ctx -> frame -> Value.t array list;
}

(* Compile-time state: the access whose catalog supplies schemas and
   ordered indexes, and how many frame slots the plan needs. *)
type compiler = {
  c_access : access;
  mutable slots : int;
}

let eval_cmp op va vb =
  match va, vb with
  | Value.Null, _ | _, Value.Null -> false
  | _ ->
    let c = Value.compare va vb in
    (match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0)

let binop_fn : Ast.binop -> Value.t -> Value.t -> Value.t = function
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div

let raises msg = fun _ _ -> raise (Eval_error msg)

(* A qualified name binds the outermost table of that alias; an
   unqualified one the innermost table that has the column. *)
let compile_col scope qualifier name : ctx -> frame -> Value.t =
  match qualifier with
  | Some alias -> (
    match List.find_opt (fun en -> en.alias = alias) scope with
    | Some en ->
      if Schema.mem en.schema name then
        let depth = en.depth and pos = Schema.index_of en.schema name in
        fun _ frame -> Tuple.get frame.(depth) pos
      else raises (Printf.sprintf "table %s has no column %s" alias name)
    | None -> raises (Printf.sprintf "unknown table alias %s" alias))
  | None -> (
    let innermost =
      List.fold_left
        (fun acc en -> if Schema.mem en.schema name then Some en else acc)
        None scope
    in
    match innermost with
    | Some en ->
      let depth = en.depth and pos = Schema.index_of en.schema name in
      fun _ frame -> Tuple.get frame.(depth) pos
    | None -> (
      fun ctx _ ->
        match ctx.var with
        | Some lookup -> (
          match lookup name with
          | Some v -> v
          | None -> fail "unknown column or variable %s" name)
        | None -> fail "unknown column %s" name))

let rec compile_expr scope (e : Ast.expr) : ctx -> frame -> Value.t =
  match e with
  | Lit (Value.Int i) -> fun ctx _ -> ctx.params.(i)
  | Lit _ -> invalid_arg "Eval: literal not lifted"
  | Host name -> (
    fun ctx _ ->
      match Hashtbl.find_opt ctx.env name with
      | Some v -> v
      | None -> fail "unbound host variable @%s" name)
  | Col (qualifier, name) -> compile_col scope qualifier name
  | Binop (op, a, b) ->
    let a = compile_expr scope a and b = compile_expr scope b in
    let f = binop_fn op in
    fun ctx frame ->
      let va = a ctx frame in
      let vb = b ctx frame in
      f va vb
  | Agg _ -> raises "aggregate used outside a SELECT projection"

(* --- probe choice (compile time only) --- *)

(* Conjuncts [col = expr] (either orientation) usable to probe table
   [alias] given that [can_eval expr] holds. *)
let rec equality_probes alias schema can_eval (cond : Ast.cond) =
  match cond with
  | And (a, b) ->
    equality_probes alias schema can_eval a
    @ equality_probes alias schema can_eval b
  | Cmp (Eq, Col (q, name), e) when (q = None || q = Some alias) && Schema.mem schema name && can_eval e
    -> [ (Schema.index_of schema name, e) ]
  | Cmp (Eq, e, Col (q, name)) when (q = None || q = Some alias) && Schema.mem schema name && can_eval e
    -> [ (Schema.index_of schema name, e) ]
  | True | Cmp _ | Or _ | Not _ | In_select _ | In_list _ | Between _
  | In_answer _ -> []

(* Range conjuncts usable to probe table [alias] via an ordered index:
   [col BETWEEN lo AND hi] and inequality comparisons. Each probe is
   (column position, side, inclusive?, bound expression). *)
let rec range_probes alias schema can_eval (cond : Ast.cond) =
  let col_of q name =
    if (q = None || q = Some alias) && Schema.mem schema name then
      Some (Schema.index_of schema name)
    else None
  in
  match cond with
  | And (a, b) ->
    range_probes alias schema can_eval a @ range_probes alias schema can_eval b
  | Between (Col (q, name), lo, hi) when can_eval lo && can_eval hi -> (
    match col_of q name with
    | Some pos -> [ (pos, `Lo, true, lo); (pos, `Hi, true, hi) ]
    | None -> [])
  | Cmp (op, Col (q, name), e) when can_eval e -> (
    match col_of q name, op with
    | Some pos, Lt -> [ (pos, `Hi, false, e) ]
    | Some pos, Le -> [ (pos, `Hi, true, e) ]
    | Some pos, Gt -> [ (pos, `Lo, false, e) ]
    | Some pos, Ge -> [ (pos, `Lo, true, e) ]
    | _ -> [])
  | Cmp (op, e, Col (q, name)) when can_eval e -> (
    match col_of q name, op with
    | Some pos, Gt -> [ (pos, `Hi, false, e) ]
    | Some pos, Ge -> [ (pos, `Hi, true, e) ]
    | Some pos, Lt -> [ (pos, `Lo, false, e) ]
    | Some pos, Le -> [ (pos, `Lo, true, e) ]
    | _ -> [])
  | True | Cmp _ | Or _ | Not _ | In_select _ | In_list _ | Between _
  | In_answer _ -> []

(* Does expression [e] only mention literals, host vars, and columns of
   tables already in scope? *)
let rec evaluable scope (e : Ast.expr) =
  match e with
  | Lit _ | Host _ -> true
  | Col (Some alias, _) -> List.exists (fun en -> en.alias = alias) scope
  | Col (None, name) -> List.exists (fun en -> Schema.mem en.schema name) scope
  | Binop (_, a, b) -> evaluable scope a && evaluable scope b
  | Agg _ -> false

(* The candidate rows of one FROM table given the tables bound before
   it: probe an equality index from WHERE conjuncts when possible, else
   a range index, else scan. The full WHERE is re-checked on the joined
   row, so probes are only a filter. *)
let choose_source cc bound (where : Ast.cond) table alias schema =
  match equality_probes alias schema (evaluable bound) where with
  | [] -> (
    let ranged =
      List.filter
        (fun (pos, _, _, _) -> cc.c_access.has_range table pos)
        (range_probes alias schema (evaluable bound) where)
    in
    match ranged with
    | [] -> Scan
    | (pos, _, _, _) :: _ ->
      let mine = List.filter (fun (p, _, _, _) -> p = pos) ranged in
      (* same-side bounds combine conservatively: the first one wins *)
      let bound_of side =
        match List.find_opt (fun (_, s, _, _) -> s = side) mine with
        | None -> fun _ _ -> Ordered_index.Unbounded
        | Some (_, _, inclusive, e) ->
          let e = compile_expr bound e in
          if inclusive then fun ctx frame -> Ordered_index.Inclusive (e ctx frame)
          else fun ctx frame -> Ordered_index.Exclusive (e ctx frame)
      in
      Range (pos, bound_of `Lo, bound_of `Hi))
  | probes ->
    Lookup
      (List.map fst probes, List.map (fun (_, e) -> compile_expr bound e) probes)

let candidates ctx frame step =
  match step.source with
  | Unknown msg -> raise (Eval_error msg)
  | Scan -> ctx.access.scan step.table
  | Lookup (positions, keys) ->
    let key = List.map (fun k -> k ctx frame) keys in
    ctx.access.lookup step.table ~positions key
  | Range (position, lo, hi) ->
    ctx.access.range step.table ~position ~lo:(lo ctx frame) ~hi:(hi ctx frame)

(* The FROM tables of one SELECT, as steps and as scope entries. A
   table whose schema cannot be read ends the steps: the join raises
   there. *)
let compile_from cc scope (sel : Ast.select) =
  let base = List.length scope in
  let _, scope, steps =
    List.fold_left
      (fun (i, scope, steps) (table, alias) ->
        let entry = { alias; schema = no_columns; depth = base + i } in
        let entry, steps =
          match steps with
          | { source = Unknown _; _ } :: _ -> (entry, steps)
          | _ -> (
            match cc.c_access.schema_of table with
            | schema ->
              let entry = { entry with schema } in
              let source = choose_source cc scope sel.where table alias schema in
              (entry, { table; entry; source } :: steps)
            | exception Eval_error msg -> (entry, { table; entry; source = Unknown msg } :: steps))
        in
        (i + 1, scope @ [ entry ], steps))
      (0, scope, []) sel.from
  in
  cc.slots <- max cc.slots (base + List.length sel.from);
  (Array.of_list (List.rev steps), scope)

(* Nested-loop join over the steps, calling [k] with the frame of every
   joined row that satisfies [where]. *)
let join ctx frame steps where k =
  let n = Array.length steps in
  let rec go i =
    if i = n then (if where ctx frame then k frame)
    else begin
      let step = steps.(i) in
      Seq.iter
        (fun (_, row) ->
          frame.(step.entry.depth) <- row;
          go (i + 1))
        (candidates ctx frame step)
    end
  in
  go 0

let rec expr_has_aggregate (e : Ast.expr) =
  match e with
  | Agg _ -> true
  | Binop (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Lit _ | Col _ | Host _ -> false

let compile_aggregate scope fn arg : ctx -> frame list -> Value.t =
  let arg = Option.map (compile_expr scope) arg in
  fun ctx group ->
    let values () =
      match arg with
      | None -> []
      | Some e -> List.map (fun frame -> e ctx frame) group
    in
    let non_null () = List.filter (fun v -> v <> Value.Null) (values ()) in
    match (fn : Ast.agg_fn), arg with
    | Count, None -> Value.Int (List.length group)
    | Count, Some _ -> Value.Int (List.length (non_null ()))
    | Sum, _ -> List.fold_left Value.add (Value.Int 0) (non_null ())
    | Min, _ -> (
      match non_null () with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest)
    | Max, _ -> (
      match non_null () with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest)
    | Avg, _ -> (
      match non_null () with
      | [] -> Value.Null
      | vs -> Value.div (List.fold_left Value.add (Value.Int 0) vs) (Value.Int (List.length vs)))

(* An expression over a whole group: aggregate nodes fold over the
   group; everything else reads its first row (Null for no rows). *)
let rec compile_grouped scope (e : Ast.expr) : ctx -> frame list -> Value.t =
  match e with
  | Agg (fn, arg) -> compile_aggregate scope fn arg
  | Binop (op, a, b) ->
    let a = compile_grouped scope a and b = compile_grouped scope b in
    let f = binop_fn op in
    fun ctx group ->
      let va = a ctx group in
      let vb = b ctx group in
      f va vb
  | Lit _ | Col _ | Host _ -> (
    let e = compile_expr scope e in
    fun ctx group ->
      match group with
      | representative :: _ -> e ctx representative
      | [] -> Value.Null)

let compare_keys (ka, _) (kb, _) =
  let rec go ka kb =
    match ka, kb with
    | [], [] -> 0
    | (va, dir) :: ra, (vb, _) :: rb ->
      let c = Value.compare va vb in
      let c = if dir = Ast.Desc then -c else c in
      if c <> 0 then c else go ra rb
    | _ -> 0
  in
  go ka kb

let rec compile_cond cc scope (cond : Ast.cond) : ctx -> frame -> bool =
  match cond with
  | True -> fun _ _ -> true
  | Cmp (op, a, b) ->
    let a = compile_expr scope a and b = compile_expr scope b in
    fun ctx frame -> eval_cmp op (a ctx frame) (b ctx frame)
  | And (a, b) ->
    let a = compile_cond cc scope a and b = compile_cond cc scope b in
    fun ctx frame -> a ctx frame && b ctx frame
  | Or (a, b) ->
    let a = compile_cond cc scope a and b = compile_cond cc scope b in
    fun ctx frame -> a ctx frame || b ctx frame
  | Not a ->
    let a = compile_cond cc scope a in
    fun ctx frame -> not (a ctx frame)
  | In_select (exprs, sub) ->
    let exprs = List.map (compile_expr scope) exprs in
    let sub = compile_select cc scope sub in
    fun ctx frame ->
      let needle = List.map (fun e -> e ctx frame) exprs in
      let rows = sub.run ctx frame in
      List.exists (fun row -> List.equal Value.equal needle (Array.to_list row)) rows
  | In_list (e, values) ->
    let e = compile_expr scope e in
    let values = List.map (compile_expr scope) values in
    fun ctx frame ->
      let needle = e ctx frame in
      List.exists (fun v -> eval_cmp Ast.Eq needle (v ctx frame)) values
  | Between (e, lo, hi) ->
    let e = compile_expr scope e in
    let lo = compile_expr scope lo and hi = compile_expr scope hi in
    fun ctx frame ->
      let v = e ctx frame in
      eval_cmp Ast.Ge v (lo ctx frame) && eval_cmp Ast.Le v (hi ctx frame)
  | In_answer _ -> raises "IN ANSWER can only appear inside an entangled query"

and compile_select cc scope (sel : Ast.select) : select_plan =
  let steps, scope = compile_from cc scope sel in
  let where = compile_cond cc scope sel.where in
  let aggregated =
    sel.group_by <> []
    || List.exists (fun (p : Ast.proj) -> expr_has_aggregate p.pexpr) sel.projs
  in
  let limit_reached =
    match sel.limit with
    | Some l -> fun count -> count >= l
    | None -> fun _ -> false
  in
  let plain = not aggregated && sel.order_by = [] && not sel.distinct in
  let run =
    if plain then begin
      (* streaming path with early LIMIT exit *)
      let projs =
        Array.of_list (List.map (fun (p : Ast.proj) -> compile_expr scope p.pexpr) sel.projs)
      in
      let project ctx frame =
        let row = Array.make (Array.length projs) Value.Null in
        for i = 0 to Array.length projs - 1 do
          row.(i) <- projs.(i) ctx frame
        done;
        row
      in
      fun ctx frame ->
        let out = ref [] in
        let count = ref 0 in
        (try
           join ctx frame steps where (fun frame ->
               if limit_reached !count then raise Exit;
               let row = project ctx frame in
               out := row :: !out;
               incr count;
               if limit_reached !count then raise Exit)
         with Exit -> ());
        List.rev !out
    end
    else begin
      (* materialize matching frames, then group / sort / dedup / limit *)
      let keyed =
        if aggregated then begin
          let group_by = List.map (compile_expr scope) sel.group_by in
          let projs =
            Array.of_list
              (List.map (fun (p : Ast.proj) -> compile_grouped scope p.pexpr) sel.projs)
          in
          let order_by =
            List.map (fun (e, dir) -> (compile_grouped scope e, dir)) sel.order_by
          in
          fun ctx frames ->
            let groups =
              if group_by = [] then [ frames ]  (* one group, even when empty *)
              else begin
                let table = Hashtbl.create 16 in
                let order = ref [] in
                List.iter
                  (fun frame ->
                    let key = List.map (fun e -> e ctx frame) group_by in
                    match Hashtbl.find_opt table key with
                    | Some members -> members := frame :: !members
                    | None ->
                      Hashtbl.add table key (ref [ frame ]);
                      order := key :: !order)
                  frames;
                List.rev_map (fun key -> List.rev !(Hashtbl.find table key)) !order
              end
            in
            List.map
              (fun group ->
                let row = Array.map (fun e -> e ctx group) projs in
                let keys = List.map (fun (e, dir) -> (e ctx group, dir)) order_by in
                (keys, row))
              groups
        end
        else begin
          let projs =
            Array.of_list (List.map (fun (p : Ast.proj) -> compile_expr scope p.pexpr) sel.projs)
          in
          let order_by = List.map (fun (e, dir) -> (compile_expr scope e, dir)) sel.order_by in
          fun ctx frames ->
            List.map
              (fun frame ->
                let row = Array.map (fun e -> e ctx frame) projs in
                let keys = List.map (fun (e, dir) -> (e ctx frame, dir)) order_by in
                (keys, row))
              frames
        end
      in
      fun ctx frame ->
        let frames = ref [] in
        join ctx frame steps where (fun frame -> frames := Array.copy frame :: !frames);
        let keyed_rows = keyed ctx (List.rev !frames) in
        let sorted =
          if sel.order_by = [] then keyed_rows
          else List.stable_sort compare_keys keyed_rows
        in
        let rows = List.map snd sorted in
        let rows =
          if sel.distinct then begin
            let seen = Hashtbl.create 16 in
            List.filter
              (fun row ->
                let key = Array.to_list row in
                if Hashtbl.mem seen key then false
                else begin
                  Hashtbl.add seen key ();
                  true
                end)
              rows
          end
          else rows
        in
        match sel.limit with
        | Some l -> List.filteri (fun i _ -> i < l) rows
        | None -> rows
    end
  in
  { steps; run }

(* UPDATE and DELETE victims: the table's probe, filtered by WHERE with
   the candidate row bound at depth 0. Victims are materialized before
   the first write so the mutation never races the (index- or
   scan-backed) candidate sequence. *)
let compile_victims cc table (where : Ast.cond) =
  let sel = { Ast.distinct = false; projs = []; from = [ (table, table) ]; where;
              group_by = []; order_by = []; limit = None } in
  let steps, scope = compile_from cc [] sel in
  let where = compile_cond cc scope where in
  let step = steps.(0) in
  let victims ctx frame =
    List.of_seq
      (Seq.filter
         (fun (_, row) ->
           frame.(0) <- row;
           where ctx frame)
         (candidates ctx frame step))
  in
  (scope, victims)

let compile_stmt cc (stmt : Ast.stmt) : ctx -> frame -> outcome =
  match stmt with
  | Select sel ->
    let plan = compile_select cc [] sel in
    (* AS @var and desugared bare @var projections bind from the first
       row, Null when there is none *)
    let binds =
      List.concat
        (List.mapi
           (fun i (p : Ast.proj) -> match p.pbind with Some v -> [ (i, v) ] | None -> [])
           sel.projs)
    in
    fun ctx frame ->
      let rows = plan.run ctx frame in
      let first = match rows with [] -> None | row :: _ -> Some row in
      List.iter
        (fun (i, v) ->
          Hashtbl.replace ctx.env v
            (match first with Some row -> row.(i) | None -> Value.Null))
        binds;
      Rows rows
  | Insert { table; columns; values } ->
    let values = List.map (compile_expr []) values in
    (* the row layout is checked after the values are evaluated, as
       the statement reads: schema and arity errors come second *)
    let layout =
      match cc.c_access.schema_of table with
      | exception Eval_error msg -> Error msg
      | schema -> (
        let arity = Schema.arity schema in
        match columns with
        | None ->
          if List.length values <> arity then
            Error (Printf.sprintf "INSERT into %s: expected %d values" table arity)
          else Ok None
        | Some cols ->
          if List.length cols <> List.length values then
            Error (Printf.sprintf "INSERT into %s: column/value count mismatch" table)
          else (
            match List.find_opt (fun c -> not (Schema.mem schema c)) cols with
            | Some col -> Error (Printf.sprintf "INSERT into %s: unknown column %s" table col)
            | None -> Ok (Some (arity, List.map (Schema.index_of schema) cols))))
    in
    fun ctx frame ->
      let values = List.map (fun e -> e ctx frame) values in
      let row =
        match layout with
        | Error msg -> raise (Eval_error msg)
        | Ok None -> Array.of_list values
        | Ok (Some (arity, positions)) ->
          let row = Array.make arity Value.Null in
          List.iter2 (fun pos v -> row.(pos) <- v) positions values;
          row
      in
      ignore (ctx.access.insert table row);
      Affected 1
  | Update { table; set; where } -> (
    match cc.c_access.schema_of table with
    | exception Eval_error msg -> raises msg
    | schema ->
      let scope, victims = compile_victims cc table where in
      let set =
        List.map
          (fun (col, e) ->
            ( (if Schema.mem schema col then Ok (Schema.index_of schema col)
               else Error (Printf.sprintf "UPDATE %s: unknown column %s" table col)),
              compile_expr scope e ))
          set
      in
      fun ctx frame ->
        let victims = victims ctx frame in
        List.iter
          (fun (id, row) ->
            frame.(0) <- row;
            let row' = Array.copy row in
            List.iter
              (fun (pos, e) ->
                match pos with
                | Error msg -> raise (Eval_error msg)
                | Ok pos -> row'.(pos) <- e ctx frame)
              set;
            ctx.access.update table id row')
          victims;
        Affected (List.length victims))
  | Delete { table; where } -> (
    match cc.c_access.schema_of table with
    | exception Eval_error msg -> raises msg
    | _ ->
      let _, victims = compile_victims cc table where in
      fun ctx frame ->
        let victims = victims ctx frame in
        List.iter (fun (id, _) -> ctx.access.delete table id) victims;
        Affected (List.length victims))
  | Set_var (v, e) ->
    let e = compile_expr [] e in
    fun ctx frame ->
      Hashtbl.replace ctx.env v (e ctx frame);
      Affected 0
  | Create_table _ | Create_index _ | Drop_table _ | Entangled _ | Rollback ->
    invalid_arg "Eval: statement has no plan"

(* --- the plan cache ---

   Plans live with the catalog whose schemas and ordered indexes they
   bake in, one map per entry point, bucketed by shape hash. Any DDL
   resets the catalog's slot, so a plan never outlives its schemas.
   Groundings run on worker domains, so the maps are immutable values
   behind atomics: a lookup takes no lock, and the rare insert (a new
   shape) is serialized by [mu]. *)

type 'a compiled = {
  slots : int;  (* frame size *)
  code : 'a;
}

type ('n, 'a) cached = {
  rep : 'n;  (* the statement the plan was compiled from *)
  rep_bound : int;
  compiled : 'a compiled;
}

module Shapes = Map.Make (Int)

type ('n, 'a) shapes = ('n, 'a) cached list Shapes.t Atomic.t

type cache = {
  mu : Mutex.t;
  stmts : (Ast.stmt, ctx -> frame -> outcome) shapes;
  selects : (Ast.select, select_plan) shapes;
  exprs : (Ast.expr, ctx -> frame -> Value.t) shapes;
  conds : (Ast.cond, ctx -> frame -> bool) shapes;
}

type Catalog.derived += Plans of cache

(* A map that reaches this many shapes starts over; the workloads have
   a handful. *)
let max_shapes = 1024

let cache_of catalog =
  match Catalog.derived catalog with
  | Plans cache -> cache
  | _ ->
    let cache =
      { mu = Mutex.create ();
        stmts = Atomic.make Shapes.empty;
        selects = Atomic.make Shapes.empty;
        exprs = Atomic.make Shapes.empty;
        conds = Atomic.make Shapes.empty }
    in
    Catalog.set_derived catalog (Plans cache);
    cache

let rec find_shape w same node = function
  | [] -> None
  | e :: rest ->
    if e.rep_bound = w.bound && same e.rep node then Some e.compiled
    else find_shape w same node rest

(* One shape walk and one map probe (confirmed by a shape comparison);
   on a miss, a numbering walk and a compile. *)
let plan access shapes walk_node same compile node =
  let w = walk ~number:false in
  ignore (walk_node w node);
  let params = Array.of_list (List.rev w.lits) in
  let cache = cache_of access.catalog in
  let tbl = shapes cache in
  let hit =
    match Shapes.find_opt w.hash (Atomic.get tbl) with
    | None -> None
    | Some entries -> find_shape w same node entries
  in
  match hit with
  | Some compiled -> (compiled, params)
  | None ->
    let cc = { c_access = access; slots = 0 } in
    let code = compile cc (walk_node (walk ~number:true) node) in
    let compiled = { slots = cc.slots; code } in
    if w.bare <= max_bare then begin
      Mutex.lock cache.mu;
      let m = Atomic.get tbl in
      let m = if Shapes.cardinal m >= max_shapes then Shapes.empty else m in
      let entries = Option.value ~default:[] (Shapes.find_opt w.hash m) in
      Atomic.set tbl
        (Shapes.add w.hash ({ rep = node; rep_bound = w.bound; compiled } :: entries) m);
      Mutex.unlock cache.mu
    end;
    (compiled, params)

let frame_for compiled = Array.make compiled.slots [||]

let exec_stmt access env (stmt : Ast.stmt) =
  match stmt with
  | Create_table { table; columns } ->
    let schema =
      Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) columns)
    in
    access.create table schema;
    Created
  | Create_index { table; columns; ordered } ->
    (if ordered then
       match columns with
       | [ column ] -> access.create_ordered_index table column
       | _ -> fail "ordered indexes cover exactly one column"
     else access.create_index table columns);
    Created
  | Drop_table table ->
    access.drop table;
    Created
  | Entangled _ -> fail "entangled query reached the classical evaluator"
  | Rollback -> fail "ROLLBACK reached the classical evaluator"
  | Select _ | Insert _ | Update _ | Delete _ | Set_var _ ->
    let compiled, params =
      plan access (fun c -> c.stmts) (w_stmt env) same_stmt compile_stmt stmt
    in
    compiled.code { access; env; var = None; params } (frame_for compiled)

let select_rows access env sel =
  match exec_stmt access env (Select sel) with
  | Rows rows -> rows
  | Affected _ | Created -> assert false

type 'a correlated = var:(string -> Value.t option) -> 'a

let select_plan access sel =
  plan access (fun c -> c.selects) (fun w s -> w_select w s) same_select
    (fun cc s -> compile_select cc [] s)
    sel

let correlated_select access env sel =
  let compiled, params = select_plan access sel in
  fun ~var ->
    compiled.code.run { access; env; var = Some var; params } (frame_for compiled)

let correlated_expr access env e =
  let compiled, params =
    plan access (fun c -> c.exprs) w_expr same_expr (fun _ e -> compile_expr [] e) e
  in
  fun ~var -> compiled.code { access; env; var = Some var; params } [||]

let correlated_cond access env c =
  let compiled, params =
    plan access (fun c -> c.conds) w_cond same_cond (fun cc c -> compile_cond cc [] c) c
  in
  fun ~var ->
    compiled.code { access; env; var = Some var; params } (frame_for compiled)

(* --- EXPLAIN: the compiled plan's own probe choices --- *)

let explain access (sel : Ast.select) =
  let compiled, _ = select_plan access sel in
  let buf = Buffer.create 128 in
  Array.iter
    (fun step ->
      let column pos = (List.nth (Schema.columns step.entry.schema) pos).Schema.name in
      (match step.source with
      | Unknown msg -> raise (Eval_error msg)
      | Scan -> Buffer.add_string buf (Printf.sprintf "SCAN %s" step.table)
      | Range (pos, _, _) ->
        Buffer.add_string buf (Printf.sprintf "RANGE %s ON (%s)" step.table (column pos))
      | Lookup (positions, _) ->
        Buffer.add_string buf
          (Printf.sprintf "PROBE %s ON (%s)" step.table
             (String.concat ", " (List.map column positions))));
      if step.entry.alias <> step.table then
        Buffer.add_string buf (Printf.sprintf " AS %s" step.entry.alias);
      Buffer.add_char buf '\n')
    compiled.code.steps;
  if sel.group_by <> [] then Buffer.add_string buf "GROUP\n";
  if List.exists (fun (p : Ast.proj) -> expr_has_aggregate p.pexpr) sel.projs
  then Buffer.add_string buf "AGGREGATE\n";
  if sel.order_by <> [] then Buffer.add_string buf "SORT\n";
  if sel.distinct then Buffer.add_string buf "DEDUP\n";
  (match sel.limit with
  | Some l -> Buffer.add_string buf (Printf.sprintf "LIMIT %d\n" l)
  | None -> ());
  String.trim (Buffer.contents buf)

(* A reference for Appendix C's isolation requirements, written to be
   obviously right rather than fast: each requirement is transcribed
   directly as a scan over every pair (or triple) of positions of the
   schedule with quasi-reads made explicit. It exists only to be
   compared against [Ent_schedule.Certify], whose violation codes it
   reproduces. Transactions are judged under Strict 2PL (no snapshot
   levels). *)

open Ent_schedule
open History

let access = function
  | Read (i, x) | Ground_read (i, x) | Quasi_read (i, x) -> Some (i, x, false)
  | Write (i, x) -> Some (i, x, true)
  | Entangle _ | Commit _ | Abort _ -> None

let read_of op =
  match access op with
  | Some (i, x, false) -> Some (i, x)
  | Some (_, _, true) | None -> None

let write_of op =
  match access op with
  | Some (i, x, true) -> Some (i, x)
  | Some (_, _, false) | None -> None

let exists_between lo hi f =
  let rec go k = k < hi && (f k || go (k + 1)) in
  go lo

(* C.2: an edge i -> j for every pair of operations of distinct
   committed transactions on overlapping objects, i's first, at least
   one a write; the schedule fails when some transaction reaches
   itself. *)
let conflict_cycle ops committed =
  let n = Array.length ops in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      match access ops.(a), access ops.(b) with
      | Some (i, x, wa), Some (j, y, wb)
        when i <> j && (wa || wb) && overlaps x y && List.mem i committed
             && List.mem j committed ->
        edges := (i, j) :: !edges
      | _ -> ()
    done
  done;
  let succs u =
    List.filter_map (fun (a, b) -> if a = u then Some b else None) !edges
  in
  let reaches_self u =
    let seen = Hashtbl.create 8 in
    let rec from v = List.exists (fun w -> w = u || visit w) (succs v)
    and visit w =
      if Hashtbl.mem seen w then false
      else begin
        Hashtbl.add seen w ();
        from w
      end
    in
    from u
  in
  List.exists reaches_self committed

(* C.3: a committed transaction reads from an aborted one: it reads an
   object after the aborted transaction wrote an overlapping one and
   before that transaction's abort. A read after the abort sees the
   value the abort restored. *)
let read_from_aborted ops committed aborted =
  let n = Array.length ops in
  let abort_of i =
    let rec go k =
      if k >= n then n
      else match ops.(k) with Abort j when j = i -> k | _ -> go (k + 1)
    in
    go 0
  in
  exists_between 0 n (fun a ->
      match write_of ops.(a) with
      | Some (i, x) when List.mem i aborted ->
        exists_between (a + 1) (abort_of i) (fun b ->
            match read_of ops.(b) with
            | Some (j, y) -> j <> i && List.mem j committed && overlaps x y
            | None -> false)
      | _ -> false)

(* C.4: an entanglement operation joins an aborted and a committed
   transaction. *)
let widowed ops committed aborted =
  Array.exists
    (function
      | Entangle (_, ps) ->
        List.exists (fun i -> List.mem i aborted) ps
        && List.exists (fun i -> List.mem i committed) ps
      | _ -> false)
    ops

(* Figure 3b: i quasi-reads x; the first later write of an overlapping
   object by another transaction invalidates it; i then reads (plainly,
   grounding or quasi) an object overlapping x. *)
let unrepeatable_quasi_read ops =
  let n = Array.length ops in
  exists_between 0 n (fun a ->
      match ops.(a) with
      | Quasi_read (i, x) -> (
        let rec first_write b =
          if b >= n then None
          else
            match write_of ops.(b) with
            | Some (j, y) when j <> i && overlaps x y -> Some b
            | _ -> first_write (b + 1)
        in
        match first_write (a + 1) with
        | None -> false
        | Some b ->
          exists_between (b + 1) n (fun c ->
              match read_of ops.(c) with
              | Some (j, y) -> j = i && overlaps x y
              | None -> false))
      | _ -> false)

(* The violation codes of a schedule, sorted. *)
let codes schedule =
  let ops = Array.of_list (expand_quasi_reads schedule) in
  let committed = History.committed schedule in
  let aborted = History.aborted schedule in
  List.filter_map
    (fun (code, violated) -> if violated then Some code else None)
    [ ("conflict-cycle", conflict_cycle ops committed);
      ("read-from-aborted", read_from_aborted ops committed aborted);
      ("unrepeatable-quasi-read", unrepeatable_quasi_read ops);
      ("widowed", widowed ops committed aborted) ]

(* A reference for the lock manager's waits-for queries, computed with
   no index, over every entry of a [Lock.dump]. A
   waiter waits for every holder of another owner whose mode is
   incompatible with its request, and for every earlier incompatible
   waiter. [group] is the caller's own copy of the entanglement tags;
   two transactions of one group are one owner. *)
module Locks = struct
  module Lock = Ent_txn.Lock

  let compatible a b =
    match a, b with
    | Lock.IS, (Lock.IS | Lock.IX | Lock.S)
    | Lock.IX, (Lock.IS | Lock.IX)
    | Lock.S, (Lock.IS | Lock.S) -> true
    | _ -> false

  let same_owner group a b =
    a = b
    ||
    match group a, group b with
    | Some ga, Some gb -> ga = gb
    | _ -> false

  let blockers dump ~group ~txn =
    List.concat_map
      (fun (_, holders, queue) ->
        match List.assoc_opt txn queue with
        | None -> []
        | Some need ->
          let rec earlier = function
            | [] -> []
            | (o, _) :: _ when o = txn -> []
            | (o, m) :: rest ->
              if compatible need m then earlier rest else o :: earlier rest
          in
          List.filter_map
            (fun (o, m) ->
              if same_owner group o txn || compatible need m then None
              else Some o)
            holders
          @ earlier queue)
      dump
    |> List.sort_uniq Int.compare

  let waits dump ~txn =
    List.filter_map
      (fun (resource, _, queue) ->
        Option.map (fun m -> (resource, m)) (List.assoc_opt txn queue))
      dump
    |> List.sort compare

  let is_waiting dump ~txn = waits dump ~txn <> []

  (* Does [txn] reach itself along blocker edges? *)
  let on_cycle dump ~group ~txn =
    let seen = Hashtbl.create 8 in
    let rec reaches node =
      List.exists
        (fun n ->
          n = txn
          || (not (Hashtbl.mem seen n))
             && begin
               Hashtbl.add seen n ();
               reaches n
             end)
        (blockers dump ~group ~txn:node)
    in
    reaches txn

  (* [cycle] starts at [txn], each member blocks on the next, and the
     last blocks on [txn]. *)
  let is_cycle dump ~group ~txn cycle =
    let edge a b = List.mem b (blockers dump ~group ~txn:a) in
    let rec links = function
      | a :: (b :: _ as rest) -> edge a b && links rest
      | [ last ] -> edge last txn
      | [] -> false
    in
    match cycle with
    | first :: _ -> first = txn && links cycle
    | [] -> false

  (* The lock manager as it was before entries were keyed by holder:
     one unsharded table of entries whose holders are a plain list,
     newest first, with [request], [promote_waiters] and [release_all]
     transcribed from that version. Every operation walks the holder
     list. *)
  module Model = struct
    let covers held want =
      match held, want with
      | Lock.X, _ -> true
      | Lock.S, (Lock.S | Lock.IS) -> true
      | Lock.IX, (Lock.IX | Lock.IS) -> true
      | Lock.IS, Lock.IS -> true
      | _ -> false

    let lub a b =
      if covers a b then a
      else if covers b a then b
      else
        match a, b with
        | Lock.IS, Lock.IX | Lock.IX, Lock.IS -> Lock.IX
        | Lock.IS, Lock.S | Lock.S, Lock.IS -> Lock.S
        | _ -> Lock.X

    type entry = {
      mutable holders : (int * Lock.mode) list;
      mutable queue : (int * Lock.mode) list;
    }

    type t = {
      entries : (Lock.resource, entry) Hashtbl.t;
      owned : (int, Lock.resource list) Hashtbl.t;
      groups : (int, int) Hashtbl.t;
    }

    let create () =
      { entries = Hashtbl.create 8; owned = Hashtbl.create 8; groups = Hashtbl.create 8 }

    let set_group t ~txn ~group = Hashtbl.replace t.groups txn group

    let conflicts t txn need (o, m) =
      (not (compatible need m)) && not (same_owner (Hashtbl.find_opt t.groups) o txn)

    let grantable t entry txn need =
      not (List.exists (conflicts t txn need) entry.holders)

    let note_owned t txn resource =
      let rs = Option.value ~default:[] (Hashtbl.find_opt t.owned txn) in
      if not (List.mem resource rs) then Hashtbl.replace t.owned txn (resource :: rs)

    let request t ~txn resource mode =
      let entry =
        match Hashtbl.find_opt t.entries resource with
        | Some e -> e
        | None ->
          let e = { holders = []; queue = [] } in
          Hashtbl.add t.entries resource e;
          e
      in
      let held = List.assoc_opt txn entry.holders in
      let need =
        match held with
        | Some h -> lub h mode
        | None -> mode
      in
      match held with
      | Some h when covers h mode -> Lock.Granted
      | _ ->
        if List.exists (fun (o, _) -> o = txn) entry.queue then begin
          entry.queue <-
            List.map
              (fun (o, m) -> if o = txn then (o, lub m need) else (o, m))
              entry.queue;
          Lock.Waiting
        end
        else if grantable t entry txn need && (entry.queue = [] || held <> None)
        then begin
          entry.holders <-
            (txn, need) :: List.filter (fun (o, _) -> o <> txn) entry.holders;
          note_owned t txn resource;
          Lock.Granted
        end
        else begin
          entry.queue <- entry.queue @ [ (txn, need) ];
          note_owned t txn resource;
          Lock.Waiting
        end

    let promote_waiters t entry =
      let granted = ref [] in
      let rec go () =
        match entry.queue with
        | (txn, need) :: rest when grantable t entry txn need ->
          entry.holders <-
            (txn, need) :: List.filter (fun (o, _) -> o <> txn) entry.holders;
          entry.queue <- rest;
          granted := txn :: !granted;
          go ()
        | _ -> ()
      in
      go ();
      !granted

    let release_all t ~txn =
      let resources = Option.value ~default:[] (Hashtbl.find_opt t.owned txn) in
      Hashtbl.remove t.owned txn;
      Hashtbl.remove t.groups txn;
      List.concat_map
        (fun resource ->
          match Hashtbl.find_opt t.entries resource with
          | None -> []
          | Some entry ->
            entry.holders <- List.filter (fun (o, _) -> o <> txn) entry.holders;
            entry.queue <- List.filter (fun (o, _) -> o <> txn) entry.queue;
            let woken = promote_waiters t entry in
            if entry.holders = [] && entry.queue = [] then
              Hashtbl.remove t.entries resource;
            woken)
        resources
      |> List.sort_uniq Int.compare

    let held t ~txn resource =
      Option.bind (Hashtbl.find_opt t.entries resource) (fun e ->
          List.assoc_opt txn e.holders)

    (* Holders sorted by txn, entries by resource, as [Lock.dump]. *)
    let dump t =
      Hashtbl.fold
        (fun resource e acc ->
          (resource, List.sort compare e.holders, e.queue) :: acc)
        t.entries []
      |> List.sort compare
  end
end

(* The Appendix B structural participation check with no index below
   the signature: every head probes every post of its (rel, arity).
   The reference for [Coordinate.structurally_blocked], which probes
   only posts that agree with the head at one constant position. The
   scratch tables are module-level: tests call it from one domain. *)
module Structural = struct
  module Ir = Ent_entangle.Ir

  let sig_of (a : Ir.atom) = (a.rel, List.length a.args)

  let posts_by_sig :
      (string * int, (int * Ir.atom * int ref) list ref) Hashtbl.t =
    Hashtbl.create 64

  let sb_alive : (int, bool) Hashtbl.t = Hashtbl.create 64
  let sb_heads : (int, Ir.atom list) Hashtbl.t = Hashtbl.create 64

  let structurally_blocked queries =
    Hashtbl.clear posts_by_sig;
    Hashtbl.clear sb_alive;
    Hashtbl.clear sb_heads;
    (* posts bucketed by signature, as (owner qid, support count ref) *)
    let bucket s =
      match Hashtbl.find_opt posts_by_sig s with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add posts_by_sig s b;
        b
    in
    List.iter
      (fun (qid, (q : Ir.t)) ->
        Hashtbl.replace sb_alive qid true;
        Hashtbl.replace sb_heads qid q.head;
        List.iter
          (fun post ->
            let b = bucket (sig_of post) in
            b := (qid, post, ref 0) :: !b)
          q.post)
      queries;
    (* initial support: every (post, head) unifiable pair, same-signature
       candidates only *)
    List.iter
      (fun (_, (q : Ir.t)) ->
        List.iter
          (fun head ->
            match Hashtbl.find_opt posts_by_sig (sig_of head) with
            | None -> ()
            | Some b ->
              List.iter
                (fun (_, post, count) ->
                  if Ir.unifiable post head then incr count)
                !b)
          q.head)
      queries;
    let worklist = Queue.create () in
    let kill qid =
      if Hashtbl.find sb_alive qid then begin
        Hashtbl.replace sb_alive qid false;
        Queue.add qid worklist
      end
    in
    Hashtbl.iter
      (fun _ b ->
        List.iter (fun (qid, _, count) -> if !count = 0 then kill qid) !b)
      posts_by_sig;
    while not (Queue.is_empty worklist) do
      let dead = Queue.pop worklist in
      List.iter
        (fun head ->
          match Hashtbl.find_opt posts_by_sig (sig_of head) with
          | None -> ()
          | Some b ->
            List.iter
              (fun (qid, post, count) ->
                if Hashtbl.find sb_alive qid && Ir.unifiable post head then begin
                  decr count;
                  if !count = 0 then kill qid
                end)
              !b)
        (Hashtbl.find sb_heads dead)
    done;
    List.filter_map
      (fun (qid, _) -> if Hashtbl.find sb_alive qid then None else Some qid)
      queries
end

(* Entanglement groups as a bare union-find whose [members] folds the
   whole table: the reference for [Ent_core.Group], which keeps each
   group's member list at its root. *)
module Group = struct
  type t = { parent : (int, int) Hashtbl.t }

  let create () = { parent = Hashtbl.create 32 }

  let rec find t x =
    match Hashtbl.find_opt t.parent x with
    | None ->
      Hashtbl.replace t.parent x x;
      x
    | Some p when p = x -> x
    | Some p ->
      let root = find t p in
      Hashtbl.replace t.parent x root;
      root

  let join t ids =
    match ids with
    | [] -> ()
    | first :: rest ->
      let root = find t first in
      List.iter (fun id -> Hashtbl.replace t.parent (find t id) root) rest

  let members t id =
    let root = find t id in
    let out =
      Hashtbl.fold
        (fun x _ acc -> if find t x = root then x :: acc else acc)
        t.parent []
    in
    let out = if List.mem id out then out else id :: out in
    List.sort_uniq Int.compare out

  let same_group t a b = find t a = find t b
  let entangled t id = List.length (members t id) > 1
  let reset t = Hashtbl.reset t.parent
end

(* The tree-walking SQL interpreter that [Ent_sql.Eval]'s statement
   plans replaced, kept as their oracle. It resolves every column by
   name against the binding on every row and picks index probes for
   every outer row; it is slow and obviously faithful to the dialect's
   definition. The plan differential in test_sql.ml runs both over the
   same statements and compares rows, host bindings, the access-call
   trace and error messages. *)
module Sql = struct
  open Ent_storage
  open Ent_sql

  let fail fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

  (* Rows in scope: [(alias, schema, row)] per FROM table, innermost last. *)
  type binding = (string * Schema.t * Tuple.t) list

  (* --- column resolution --- *)

  let resolve_column binding qualifier name =
    match qualifier with
    | Some alias -> (
      match List.find_opt (fun (a, _, _) -> a = alias) binding with
      | Some (_, schema, row) ->
        if Schema.mem schema name then Some (Tuple.get row (Schema.index_of schema name))
        else fail "table %s has no column %s" alias name
      | None -> fail "unknown table alias %s" alias)
    | None -> (
      (* Innermost scope wins: bindings are appended as scopes nest, so
         resolve from the end of the list. *)
      let hits =
        List.filter (fun (_, schema, _) -> Schema.mem schema name) binding
      in
      match List.rev hits with
      | (_, schema, row) :: _ -> Some (Tuple.get row (Schema.index_of schema name))
      | [] -> None)

  let rec eval_expr ?var access env binding (e : Ast.expr) =
    match e with
    | Lit v -> v
    | Host name -> (
      match Hashtbl.find_opt env name with
      | Some v -> v
      | None -> fail "unbound host variable @%s" name)
    | Col (qualifier, name) -> (
      match resolve_column binding qualifier name with
      | Some v -> v
      | None -> (
        match var with
        | Some lookup -> (
          match lookup name with
          | Some v -> v
          | None -> fail "unknown column or variable %s" name)
        | None -> fail "unknown column %s" name))
    | Binop (op, a, b) -> (
      let va = eval_expr ?var access env binding a in
      let vb = eval_expr ?var access env binding b in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb)
    | Agg _ | Count_star -> fail "aggregate used outside a SELECT projection"

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

  (* --- equality-conjunct extraction for the index fast path --- *)

  (* Collect conjuncts [col = expr] (either orientation) usable to probe
     table [alias] given that [can_eval expr] holds. *)
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
     tables already bound? *)
  let rec evaluable_now binding (e : Ast.expr) =
    match e with
    | Lit _ | Host _ -> true
    | Col (Some alias, _) -> List.exists (fun (a, _, _) -> a = alias) binding
    | Col (None, name) ->
      List.exists (fun (_, schema, _) -> Schema.mem schema name) binding
    | Binop (_, a, b) -> evaluable_now binding a && evaluable_now binding b
    | Agg _ | Count_star -> false

  let rec eval_cond ?var access env binding (cond : Ast.cond) =
    match cond with
    | True -> true
    | Cmp (op, a, b) ->
      eval_cmp op
        (eval_expr ?var access env binding a)
        (eval_expr ?var access env binding b)
    | And (a, b) ->
      eval_cond ?var access env binding a && eval_cond ?var access env binding b
    | Or (a, b) ->
      eval_cond ?var access env binding a || eval_cond ?var access env binding b
    | Not c -> not (eval_cond ?var access env binding c)
    | In_select (exprs, sub) ->
      let needle = List.map (eval_expr ?var access env binding) exprs in
      let rows = select_rows_inner ?var access env binding sub in
      List.exists
        (fun row -> List.equal Value.equal needle (Array.to_list row))
        rows
    | In_list (e, values) ->
      let needle = eval_expr ?var access env binding e in
      List.exists
        (fun v -> eval_cmp Ast.Eq needle (eval_expr ?var access env binding v))
        values
    | Between (e, lo, hi) ->
      let v = eval_expr ?var access env binding e in
      eval_cmp Ast.Ge v (eval_expr ?var access env binding lo)
      && eval_cmp Ast.Le v (eval_expr ?var access env binding hi)
    | In_answer _ ->
      fail "IN ANSWER can only appear inside an entangled query"

  (* Candidate rows of one FROM table given the rows already bound:
     probe an equality index from WHERE conjuncts when possible, else a
     range index, else scan. The caller re-checks the full WHERE on the
     joined binding, so probes are only a filter. Shared by SELECT's
     nested-loop join and by UPDATE/DELETE victim selection. *)
  and table_candidates ?var (access : Eval.access) env binding (where : Ast.cond) table alias =
    let schema = access.schema_of table in
    let probes = equality_probes alias schema (evaluable_now binding) where in
    match probes with
    | [] -> (
      (* no equality probe: try a range probe on an ordered index *)
      let ranged =
        List.filter
          (fun (pos, _, _, _) -> access.has_range table pos)
          (range_probes alias schema (evaluable_now binding) where)
      in
      match ranged with
      | [] -> access.scan table
      | (pos, _, _, _) :: _ ->
        let mine = List.filter (fun (p, _, _, _) -> p = pos) ranged in
        let bound side =
          (* combine same-side bounds conservatively: use the first *)
          List.fold_left
            (fun acc (_, s, inclusive, e) ->
              if s <> side || acc <> Ordered_index.Unbounded then acc
              else
                let v = eval_expr ?var access env binding e in
                if inclusive then Ordered_index.Inclusive v
                else Ordered_index.Exclusive v)
            Ordered_index.Unbounded mine
        in
        access.range table ~position:pos ~lo:(bound `Lo) ~hi:(bound `Hi))
    | _ ->
      let positions = List.map fst probes in
      let key =
        List.map (fun (_, e) -> eval_expr ?var access env binding e) probes
      in
      access.lookup table ~positions key

  (* Nested-loop join with an index fast path per table. *)
  and join_rows ?var (access : Eval.access) env outer_binding (sel : Ast.select) k =
    let rec go binding = function
      | [] -> if eval_cond ?var access env binding sel.where then k binding
      | (table, alias) :: rest ->
        let schema = access.schema_of table in
        Seq.iter
          (fun (_, row) -> go (binding @ [ (alias, schema, row) ]) rest)
          (table_candidates ?var access env binding sel.where table alias)
    in
    go outer_binding sel.from

  and expr_has_aggregate (e : Ast.expr) =
    match e with
    | Agg _ | Count_star -> true
    | Binop (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
    | Lit _ | Col _ | Host _ -> false

  and eval_aggregate ?var access env group fn arg =
    let non_null () =
      List.filter (fun v -> v <> Value.Null)
        (List.map (fun binding -> eval_expr ?var access env binding arg) group)
    in
    match fn with
    | Ast.Count -> Value.Int (List.length (non_null ()))
    | Ast.Sum ->
      List.fold_left Value.add (Value.Int 0) (non_null ())
    | Ast.Min -> (
      match non_null () with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest)
    | Ast.Max -> (
      match non_null () with
      | [] -> Value.Null
      | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest)
    | Ast.Avg -> (
      match non_null () with
      | [] -> Value.Null
      | vs -> Value.div (List.fold_left Value.add (Value.Int 0) vs) (Value.Int (List.length vs)))

  (* Evaluate an expression over a whole group: aggregate nodes fold over
     the group; everything else resolves against its first row. *)
  and eval_grouped ?var access env group (e : Ast.expr) =
    match e with
    | Agg (fn, arg) -> eval_aggregate ?var access env group fn arg
    | Count_star -> Value.Int (List.length group)
    | Binop (op, a, b) -> (
      let va = eval_grouped ?var access env group a in
      let vb = eval_grouped ?var access env group b in
      match op with
      | Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb)
    | Lit _ | Col _ | Host _ -> (
      match group with
      | representative :: _ -> eval_expr ?var access env representative e
      | [] -> Value.Null)

  and select_rows_inner ?var access env outer_binding (sel : Ast.select) =
    let aggregated =
      sel.group_by <> []
      || List.exists (fun (p : Ast.proj) -> expr_has_aggregate p.pexpr) sel.projs
    in
    let plain = not aggregated && sel.order_by = [] && not sel.distinct in
    if plain then begin
      (* streaming path with early LIMIT exit *)
      let out = ref [] in
      let count = ref 0 in
      let limit_reached () =
        match sel.limit with
        | Some l -> !count >= l
        | None -> false
      in
      (try
         join_rows ?var access env outer_binding sel (fun binding ->
             if limit_reached () then raise Exit;
             let row =
               Array.of_list
                 (List.map
                    (fun (p : Ast.proj) -> eval_expr ?var access env binding p.pexpr)
                    sel.projs)
             in
             out := row :: !out;
             incr count;
             if limit_reached () then raise Exit)
       with Exit -> ());
      List.rev !out
    end
    else begin
      (* materialize matching bindings, then group / sort / dedup / limit *)
      let bindings = ref [] in
      join_rows ?var access env outer_binding sel (fun binding ->
          bindings := binding :: !bindings);
      let bindings = List.rev !bindings in
      let keyed_rows =
        if aggregated then begin
          let groups =
            if sel.group_by = [] then [ bindings ]  (* one group, even when empty *)
            else begin
              let table = Hashtbl.create 16 in
              let order = ref [] in
              List.iter
                (fun binding ->
                  let key =
                    List.map (fun e -> eval_expr ?var access env binding e) sel.group_by
                  in
                  (match Hashtbl.find_opt table key with
                  | Some members -> members := binding :: !members
                  | None ->
                    Hashtbl.add table key (ref [ binding ]);
                    order := key :: !order))
                bindings;
              List.rev_map (fun key -> List.rev !(Hashtbl.find table key)) !order
            end
          in
          List.map
            (fun group ->
              let row =
                Array.of_list
                  (List.map
                     (fun (p : Ast.proj) -> eval_grouped ?var access env group p.pexpr)
                     sel.projs)
              in
              let keys =
                List.map
                  (fun (e, dir) -> (eval_grouped ?var access env group e, dir))
                  sel.order_by
              in
              (keys, row))
            groups
        end
        else
          List.map
            (fun binding ->
              let row =
                Array.of_list
                  (List.map
                     (fun (p : Ast.proj) -> eval_expr ?var access env binding p.pexpr)
                     sel.projs)
              in
              let keys =
                List.map
                  (fun (e, dir) -> (eval_expr ?var access env binding e, dir))
                  sel.order_by
              in
              (keys, row))
            bindings
      in
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
      in
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

  let apply_host_bindings env (projs : Ast.proj list) rows =
    let first = match rows with [] -> None | row :: _ -> Some row in
    List.iteri
      (fun i (p : Ast.proj) ->
        match p.pbind with
        | None -> ()
        | Some v ->
          let value =
            match first with
            | Some row -> row.(i)
            | None -> Value.Null
          in
          Hashtbl.replace env v value)
      projs

  (* Appendix D shorthand: in a classical SELECT with a FROM clause, a
     projection [@v] where [@v] is unbound means "column v AS @v". *)
  let desugar_bare_host_projs env (sel : Ast.select) =
    if sel.from = [] then sel
    else
      let projs =
        List.map
          (fun (p : Ast.proj) ->
            match p.pexpr, p.pbind with
            | Ast.Host v, None when not (Hashtbl.mem env v) ->
              { Ast.pexpr = Ast.Col (None, v); pbind = Some v }
            | _ -> p)
          sel.projs
      in
      { sel with projs }

  let select_rows access env sel =
    let sel = desugar_bare_host_projs env sel in
    let rows = select_rows_inner access env [] sel in
    apply_host_bindings env sel.projs rows;
    rows

  let select_rows_correlated ?var access env sel =
    select_rows_inner ?var access env [] sel

  (* --- writes --- *)

  let row_for_insert (access : Eval.access) table columns values =
    let schema = access.schema_of table in
    let arity = Schema.arity schema in
    match columns with
    | None ->
      if List.length values <> arity then
        fail "INSERT into %s: expected %d values" table arity;
      Array.of_list values
    | Some cols ->
      if List.length cols <> List.length values then
        fail "INSERT into %s: column/value count mismatch" table;
      let row = Array.make arity Value.Null in
      List.iter2
        (fun col v ->
          if not (Schema.mem schema col) then
            fail "INSERT into %s: unknown column %s" table col;
          row.(Schema.index_of schema col) <- v)
        cols values;
      row


  let exec_stmt (access : Eval.access) env (stmt : Ast.stmt) =
    match stmt with
    | Select sel -> Eval.Rows (select_rows access env sel)
    | Insert { table; columns; values } ->
      let values = List.map (eval_expr access env []) values in
      let row = row_for_insert access table columns values in
      ignore (access.insert table row);
      Eval.Affected 1
    | Update { table; set; where } ->
      let schema = access.schema_of table in
      (* victims are materialized before the first write so the mutation
         never races the (index- or scan-backed) candidate sequence *)
      let victims =
        List.of_seq
          (Seq.filter
             (fun (_, row) -> eval_cond access env [ (table, schema, row) ] where)
             (table_candidates access env [] where table table))
      in
      List.iter
        (fun (id, row) ->
          let row' = Array.copy row in
          List.iter
            (fun (col, e) ->
              if not (Schema.mem schema col) then
                fail "UPDATE %s: unknown column %s" table col;
              row'.(Schema.index_of schema col) <-
                eval_expr access env [ (table, schema, row) ] e)
            set;
          access.update table id row')
        victims;
      Eval.Affected (List.length victims)
    | Delete { table; where } ->
      let schema = access.schema_of table in
      let victims =
        List.of_seq
          (Seq.filter
             (fun (_, row) -> eval_cond access env [ (table, schema, row) ] where)
             (table_candidates access env [] where table table))
      in
      List.iter (fun (id, _) -> access.delete table id) victims;
      Eval.Affected (List.length victims)
    | Create_table { table; columns } ->
      let schema =
        Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) columns)
      in
      access.create table schema;
      Eval.Created
    | Create_index { table; columns; ordered } ->
      (if ordered then
         match columns with
         | [ column ] -> access.create_ordered_index table column
         | _ -> fail "ordered indexes cover exactly one column"
       else access.create_index table columns);
      Eval.Created
    | Drop_table table ->
      access.drop table;
      Eval.Created
    | Set_var (v, e) ->
      Hashtbl.replace env v (eval_expr access env [] e);
      Eval.Affected 0
    | Entangled _ -> fail "entangled query reached the classical evaluator"
    | Rollback -> fail "ROLLBACK reached the classical evaluator"
end

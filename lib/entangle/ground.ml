open Ent_storage
module Obs = Ent_obs.Obs

let m_computes = Obs.counter "entangle.ground.computes"
let m_valuations = Obs.counter "entangle.ground.valuations"
let m_size = Obs.histogram "entangle.ground.size"

type grounding = {
  g_head : Ir.ground_atom list;
  g_post : Ir.ground_atom list;
}

exception Ground_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Ground_error s)) fmt

module Valuation = Map.Make (String)

(* Split the (already IN-ANSWER-free) body into a left-to-right list of
   conjuncts. *)
let rec conjuncts (c : Ent_sql.Ast.cond) =
  match c with
  | And (a, b) -> conjuncts a @ conjuncts b
  | True -> []
  | c -> [ c ]

let lookup_of valuation name = Valuation.find_opt name valuation

(* Extend [valuation] by unifying binding expressions with a row of
   subquery results. Returns None on mismatch. *)
let unify_row ~access ~env valuation exprs row =
  let exception Mismatch in
  try
    Some
      (List.fold_left2
         (fun acc (e : Ent_sql.Ast.expr) value ->
           match e with
           | Col (None, x) -> (
             match Valuation.find_opt x acc with
             | Some bound ->
               if Value.equal bound value then acc else raise Mismatch
             | None -> Valuation.add x value acc)
           | _ -> (
             (* constant-ish expression: evaluate and compare *)
             match
               Ent_sql.Eval.eval_expr ~var:(lookup_of acc) access env [] e
             with
             | v when Value.equal v value -> acc
             | _ -> raise Mismatch
             | exception Ent_sql.Eval.Eval_error _ -> raise Mismatch))
         valuation exprs row)
  with Mismatch -> None

type valuation = Value.t Valuation.t

(* Stage 1 — the expensive, database-reading half: enumerate the
   valuations satisfying [body] under [env]. This is a pure function of
   (body, referenced host bindings, database state), which is what
   makes it cacheable (Gcache); the per-query head/post substitution
   happens in stage 2. *)
let valuations ?(limit = 10_000) ~access ~env (body : Ent_sql.Ast.cond) =
  let binders, filters =
    List.partition
      (fun (c : Ent_sql.Ast.cond) ->
        match c with
        | In_select _ -> true
        | _ -> false)
      (conjuncts body)
  in
  (* Enumerate valuations binder by binder (left to right, correlated
     subqueries see earlier bindings). A subquery whose evaluation never
     consulted the valuation took no branch that depends on it, and
     grounding only reads, so every other valuation would read the same
     rows: keep them instead of re-running it. *)
  let explored = ref 0 in
  let step valuations (c : Ent_sql.Ast.cond) =
    match c with
    | In_select (exprs, sub) ->
      let shared = ref None in
      List.concat_map
        (fun valuation ->
          let rows =
            match !shared with
            | Some rows -> rows
            | None ->
              let correlated = ref false in
              let var x =
                correlated := true;
                lookup_of valuation x
              in
              let rows =
                Ent_sql.Eval.select_rows_correlated ~var access env sub
              in
              if not !correlated then shared := Some rows;
              rows
          in
          List.filter_map
            (fun row ->
              incr explored;
              if !explored > limit then
                fail "grounding exceeded %d valuations" limit;
              unify_row ~access ~env valuation exprs (Array.to_list row))
            rows)
        valuations
    | _ -> assert false
  in
  let valuations = List.fold_left step [ Valuation.empty ] binders in
  (* Apply the remaining conjuncts as filters. *)
  let keep valuation =
    List.for_all
      (fun c ->
        try Ent_sql.Eval.eval_cond ~var:(lookup_of valuation) access env [] c
        with Ent_sql.Eval.Eval_error msg ->
          fail "body filter not evaluable: %s" msg)
      filters
  in
  let valuations = List.filter keep valuations in
  Obs.incr m_computes;
  Obs.incr ~n:!explored m_valuations;
  valuations

(* Stage 2 — cheap and database-free: substitute each valuation into
   the query's head and post atoms and de-duplicate. *)
let groundings_of (query : Ir.t) valuations =
  let to_grounding valuation =
    let subst atom =
      Ir.substitute
        (fun x ->
          match Valuation.find_opt x valuation with
          | Some v -> v
          | None -> fail "unbound variable %s (unsafe query)" x)
        atom
    in
    { g_head = List.map subst query.head; g_post = List.map subst query.post }
  in
  let groundings = List.map to_grounding valuations in
  (* De-duplicate while keeping first-seen order. *)
  let seen = Hashtbl.create 16 in
  let groundings =
    List.filter
      (fun g ->
        let key = (g.g_head, g.g_post) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      groundings
  in
  Obs.observe m_size (float_of_int (List.length groundings));
  groundings

let compute ?limit ~access ~env (query : Ir.t) =
  groundings_of query (valuations ?limit ~access ~env query.body)

let pp_ground_atom ppf ((rel, values) : Ir.ground_atom) =
  Format.fprintf ppf "%s(%a)" rel
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    values

let pp_grounding ppf g =
  let pp_atoms =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ") pp_ground_atom
  in
  Format.fprintf ppf "{%a} %a" pp_atoms g.g_post pp_atoms g.g_head

open Ent_storage
module Ast = Ent_sql.Ast

type bound = Value.t * bool

type cstr = {
  eqs : Value.t list;
  nes : Value.t list;
  los : bound list;
  his : bound list;
  sets : Value.t list list;
}

type t = {
  cols : (string * cstr) list;
  falsum : bool;
  exact : bool;
}

let empty_cstr = { eqs = []; nes = []; los = []; his = []; sets = [] }

let top = { cols = []; falsum = false; exact = false }
let exact_top = { cols = []; falsum = false; exact = true }

(* The finite candidate list for a constraint, when one is implied:
   [Some vs] means exactly the values in [vs] can satisfy it ([Some []]
   = unsatisfiable); [None] means the candidate space is unbounded (or
   at least not bounded by this fragment). *)
let candidates c =
  let meets_lo v =
    List.for_all
      (fun (b, incl) ->
        let cmp = Value.compare v b in
        if incl then cmp >= 0 else cmp > 0)
      c.los
  in
  let meets_hi v =
    List.for_all
      (fun (b, incl) ->
        let cmp = Value.compare v b in
        if incl then cmp <= 0 else cmp < 0)
      c.his
  in
  let ok v =
    List.for_all (Value.equal v) c.eqs
    && (not (List.exists (Value.equal v) c.nes))
    && meets_lo v && meets_hi v
    && List.for_all (fun s -> List.exists (Value.equal v) s) c.sets
  in
  match c.eqs, c.sets with
  | v :: _, _ -> Some (if ok v then [ v ] else [])
  | [], s :: _ -> Some (List.sort_uniq Value.compare (List.filter ok s))
  | [], [] ->
    (* Only bounds and disequalities: unsatisfiable exactly when some
       lower bound exceeds some upper bound (disequalities alone cannot
       exhaust an unbounded domain). *)
    let contradicts =
      List.exists
        (fun (lo, lo_incl) ->
          List.exists
            (fun (hi, hi_incl) ->
              let cmp = Value.compare lo hi in
              cmp > 0 || (cmp = 0 && not (lo_incl && hi_incl)))
            c.his)
        c.los
    in
    if contradicts then Some [] else None

let cstr_unsat c = candidates c = Some []

let unsat t = t.falsum || List.exists (fun (_, c) -> cstr_unsat c) t.cols

let conjoin_cstr a b =
  {
    eqs = a.eqs @ b.eqs;
    nes = a.nes @ b.nes;
    los = a.los @ b.los;
    his = a.his @ b.his;
    sets = a.sets @ b.sets;
  }

let conjoin a b =
  let keys =
    List.sort_uniq String.compare (List.map fst a.cols @ List.map fst b.cols)
  in
  let cstr_of t k = Option.value ~default:empty_cstr (List.assoc_opt k t.cols) in
  {
    cols = List.map (fun k -> (k, conjoin_cstr (cstr_of a k) (cstr_of b k))) keys;
    falsum = a.falsum || b.falsum;
    exact = a.exact && b.exact;
  }

(* The recorded constraints are necessary conditions on matching rows,
   so an unsatisfiable conjunction proves the two predicates select
   disjoint row sets; anything else may overlap. *)
let may_overlap a b = not (unsat (conjoin a b))

let count t col =
  match List.assoc_opt col t.cols with
  | None -> None
  | Some c -> Option.map List.length (candidates c)

let of_cond ~owns cond =
  let cols : (string, cstr) Hashtbl.t = Hashtbl.create 8 in
  let falsum = ref false in
  let exact = ref true in
  let get c = Option.value ~default:empty_cstr (Hashtbl.find_opt cols c) in
  let update c f = Hashtbl.replace cols c (f (get c)) in
  let lit = function
    | Ast.Lit v -> Some v
    | _ -> None
  in
  let col = function
    | Ast.Col (q, c) when owns q -> Some c
    | _ -> None
  in
  let flip (op : Ast.cmp) =
    match op with
    | Eq -> Ast.Eq
    | Ne -> Ne
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
  in
  let add_cmp (op : Ast.cmp) c v =
    match op with
    | Eq -> update c (fun k -> { k with eqs = v :: k.eqs })
    | Ne -> update c (fun k -> { k with nes = v :: k.nes })
    | Lt -> update c (fun k -> { k with his = (v, false) :: k.his })
    | Le -> update c (fun k -> { k with his = (v, true) :: k.his })
    | Gt -> update c (fun k -> { k with los = (v, false) :: k.los })
    | Ge -> update c (fun k -> { k with los = (v, true) :: k.los })
  in
  let const_holds (op : Ast.cmp) a b =
    let cmp = Value.compare a b in
    match op with
    | Eq -> cmp = 0
    | Ne -> cmp <> 0
    | Lt -> cmp < 0
    | Le -> cmp <= 0
    | Gt -> cmp > 0
    | Ge -> cmp >= 0
  in
  let rec walk (c : Ast.cond) =
    match c with
    | True -> ()
    | And (a, b) ->
      walk a;
      walk b
    | Cmp (op, a, b) -> (
      match col a, lit b, lit a, col b with
      | Some c, Some v, _, _ -> add_cmp op c v
      | _, _, Some v, Some c -> add_cmp (flip op) c v
      | _ -> (
        match lit a, lit b with
        | Some va, Some vb -> if not (const_holds op va vb) then falsum := true
        | _ -> exact := false))
    | Between (e, lo, hi) -> (
      match col e, lit lo, lit hi with
      | Some c, Some vl, Some vh ->
        add_cmp Ge c vl;
        add_cmp Le c vh
      | _ -> exact := false)
    | In_list (e, vs) -> (
      let lits = List.filter_map lit vs in
      match col e with
      | Some c when List.length lits = List.length vs ->
        update c (fun k -> { k with sets = lits :: k.sets })
      | _ -> exact := false)
    | Or _ | Not _ | In_select _ | In_answer _ -> exact := false
  in
  walk cond;
  let cols =
    Hashtbl.fold (fun c k acc -> (c, k) :: acc) cols []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { cols; falsum = !falsum; exact = !exact }

let pp_cstr ppf c =
  let v = Format.asprintf "%a" Value.pp in
  let parts =
    List.map (fun x -> "= " ^ v x) c.eqs
    @ List.map (fun x -> "<> " ^ v x) c.nes
    @ List.map
        (fun (x, incl) -> (if incl then ">= " else "> ") ^ v x)
        c.los
    @ List.map
        (fun (x, incl) -> (if incl then "<= " else "< ") ^ v x)
        c.his
    @ List.map
        (fun s -> "in {" ^ String.concat ", " (List.map v s) ^ "}")
        c.sets
  in
  Format.pp_print_string ppf (String.concat " and " parts)

let pp ppf t =
  if t.falsum then Format.pp_print_string ppf "false"
  else if t.cols = [] then
    Format.pp_print_string ppf (if t.exact then "true" else "*")
  else begin
    Format.pp_print_string ppf
      (String.concat ", "
         (List.map
            (fun (c, k) -> Format.asprintf "%s %a" c pp_cstr k)
            t.cols));
    if not t.exact then Format.pp_print_string ppf ", *"
  end

let unsat_witness t =
  if t.falsum then
    Some "a constant comparison in the condition is always false"
  else
    List.find_map
      (fun (c, k) ->
        if cstr_unsat k then
          Some
            (Format.asprintf "column %s: constraints [%a] admit no value" c
               pp_cstr k)
        else None)
      t.cols

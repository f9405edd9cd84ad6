open Ent_storage

type term =
  | Const of Value.t
  | Var of string

type atom = {
  rel : string;
  args : term list;
}

type ground_atom = string * Value.t list

type t = {
  head : atom list;
  post : atom list;
  body : Ent_sql.Ast.cond;
  binds : (string * int) list;
  choose : int;
}

let atom_vars atom =
  List.filter_map
    (function
      | Var v -> Some v
      | Const _ -> None)
    atom.args

let answer_vars t =
  List.concat_map atom_vars (t.head @ t.post) |> List.sort_uniq String.compare

(* Variables of an expression that are free at the top level of an
   entangled query (i.e. plain identifiers — there is no FROM scope). *)
let rec expr_vars (e : Ent_sql.Ast.expr) =
  match e with
  | Lit _ | Host _ -> []
  | Col (_, name) -> [ name ]
  | Binop (_, a, b) -> expr_vars a @ expr_vars b
  | Agg _ | Count_star -> []

let rec cond_bound_vars (c : Ent_sql.Ast.cond) =
  match c with
  | And (a, b) -> cond_bound_vars a @ cond_bound_vars b
  | In_select (exprs, _) -> List.concat_map expr_vars exprs
  | Cmp (Eq, Col (None, v), (Lit _ | Host _)) -> [ v ]
  | Cmp (Eq, (Lit _ | Host _), Col (None, v)) -> [ v ]
  | True | Cmp _ | Or _ | Not _ | In_list _ | Between _ | In_answer _ -> []

let body_bound_vars t = List.sort_uniq String.compare (cond_bound_vars t.body)

exception Unsafe of string

let validate t =
  if t.choose <> 1 then
    raise (Unsafe (Printf.sprintf "CHOOSE %d is not supported (only CHOOSE 1)" t.choose));
  if t.head = [] then raise (Unsafe "entangled query with empty head");
  let bound = body_bound_vars t in
  List.iter
    (fun v ->
      if not (List.mem v bound) then
        raise
          (Unsafe
             (Printf.sprintf
                "variable %s appears in the head or postcondition but is not \
                 bound by the body (range restriction)"
                v)))
    (answer_vars t)

let unifiable a b =
  a.rel = b.rel
  && List.length a.args = List.length b.args
  && List.for_all2
       (fun ta tb ->
         match ta, tb with
         | Const va, Const vb -> Value.equal va vb
         | Var _, _ | _, Var _ -> true)
       a.args b.args

let substitute valuation atom =
  ( atom.rel,
    List.map
      (function
        | Const v -> v
        | Var x -> valuation x)
      atom.args )

let pp_term ppf = function
  | Const v -> Value.pp ppf v
  | Var x -> Format.pp_print_string ppf x

let pp_atom ppf atom =
  Format.fprintf ppf "%s(%a)" atom.rel
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
    atom.args

let pp ppf t =
  let pp_atoms = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ") pp_atom in
  Format.fprintf ppf "{%a} %a <- %a" pp_atoms t.post pp_atoms t.head
    Ent_sql.Pretty.pp_cond t.body

type t = {
  label : string;
  ast : Ent_sql.Ast.program;
  stmts : Ent_sql.Ast.stmt array;
  transactional : bool;
  isolation : Ent_txn.Engine.level;
}

let make ?(label = "txn") ?(transactional = true)
    ?(isolation = Ent_txn.Engine.Serializable_2pl) (ast : Ent_sql.Ast.program) =
  { label; ast; stmts = Array.of_list (List.map fst ast.body); transactional; isolation }

let of_string ?label ?transactional ?isolation input =
  make ?label ?transactional ?isolation (Ent_sql.Parser.parse_program input)

let to_string t =
  (* The isolation header appears only for non-default levels, keeping
     serialized 2PL programs byte-identical to the pre-MVCC format. *)
  match t.isolation with
  | Ent_txn.Engine.Serializable_2pl ->
    Format.asprintf "-- label: %s@\n-- transactional: %b@\n%a" t.label
      t.transactional Ent_sql.Pretty.pp_program t.ast
  | Ent_txn.Engine.Snapshot ->
    Format.asprintf "-- label: %s@\n-- transactional: %b@\n-- isolation: %s@\n%a"
      t.label t.transactional
      (Ent_txn.Engine.level_to_string t.isolation)
      Ent_sql.Pretty.pp_program t.ast

let header_value line prefix =
  if String.length line > String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
  else None

let of_serialized input =
  let lines = String.split_on_char '\n' input in
  let label =
    List.find_map (fun l -> header_value l "-- label: ") lines
    |> Option.value ~default:"txn"
  in
  let transactional =
    match List.find_map (fun l -> header_value l "-- transactional: ") lines with
    | Some "false" -> false
    | Some _ | None -> true
  in
  let isolation =
    match List.find_map (fun l -> header_value l "-- isolation: ") lines with
    | Some s ->
      Option.value ~default:Ent_txn.Engine.Serializable_2pl
        (Ent_txn.Engine.level_of_string s)
    | None -> Ent_txn.Engine.Serializable_2pl
  in
  make ~label ~transactional ~isolation (Ent_sql.Parser.parse_program input)

let entangled_count t =
  Array.fold_left
    (fun n (s : Ent_sql.Ast.stmt) ->
      match s with
      | Entangled _ -> n + 1
      | _ -> n)
    0 t.stmts

type col_type = T_bool | T_int | T_str | T_date | T_any

type column = {
  name : string;
  ty : col_type;
}

type t = {
  cols : column array;
  positions : (string, int) Hashtbl.t;
}

let make cols =
  let cols = Array.of_list cols in
  let positions = Hashtbl.create (Array.length cols) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem positions c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add positions c.name i)
    cols;
  { cols; positions }

let of_names names = make (List.map (fun name -> { name; ty = T_any }) names)
let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let index_of t name = Hashtbl.find t.positions name
let mem t name = Hashtbl.mem t.positions name

let check_value ty (v : Value.t) =
  match ty, v with
  | T_any, _ -> true
  | _, Null -> true
  | T_bool, Bool _ -> true
  | T_int, Int _ -> true
  | T_str, Str _ -> true
  | T_date, Date _ -> true
  | (T_bool | T_int | T_str | T_date), _ -> false

let type_name = function
  | T_bool -> "bool"
  | T_int -> "int"
  | T_str -> "string"
  | T_date -> "date"
  | T_any -> "any"

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf c -> Format.fprintf ppf "%s:%s" c.name (type_name c.ty)))
    (columns t)

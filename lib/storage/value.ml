type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Date of int

exception Type_error of string

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Date _ -> 4

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Str _ -> "string"
  | Date _ -> "date"

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> if b then 3 else 5
  | Int i -> Hashtbl.hash i
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d, 'D')

(* Civil-date conversions after Howard Hinnant's algorithms. *)
let days_from_civil ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + d - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let d = doy - (153 * mp + 2) / 5 + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let date_of_ymd ~y ~m ~d = Date (days_from_civil ~y ~m ~d)
let ymd_of_date = civil_from_days

let parse_date s =
  if String.length s = 10 && s.[4] = '-' && s.[7] = '-' then
    match
      ( int_of_string_opt (String.sub s 0 4),
        int_of_string_opt (String.sub s 5 2),
        int_of_string_opt (String.sub s 8 2) )
    with
    | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
      Some (date_of_ymd ~y ~m ~d)
    | _ -> None
  else None

let arith_error op a b =
  raise
    (Type_error
       (Printf.sprintf "cannot %s %s and %s" op (type_name a) (type_name b)))

let add a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x + y)
  | Date x, Int y | Int y, Date x -> Date (x + y)
  | Str x, Str y -> Str (x ^ y)
  | _ -> arith_error "add" a b

let sub a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x - y)
  | Date x, Int y -> Date (x - y)
  | Date x, Date y -> Int (x - y)
  | _ -> arith_error "subtract" a b

let mul a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x * y)
  | _ -> arith_error "multiply" a b

let div a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> raise (Type_error "division by zero")
  | Int x, Int y -> Int (x / y)
  | _ -> arith_error "divide" a b

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Str s -> s
  | Date d ->
    let y, m, dd = civil_from_days d in
    Printf.sprintf "%04d-%02d-%02d" y m dd

let pp ppf v =
  match v with
  | Str s -> Format.fprintf ppf "'%s'" s
  | _ -> Format.pp_print_string ppf (to_string v)

let of_literal s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match parse_date s with
    | Some d -> d
    | None -> (
      match s with
      | "true" -> Bool true
      | "false" -> Bool false
      | "NULL" | "null" -> Null
      | _ -> Str s))

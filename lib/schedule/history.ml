type obj =
  | Named of string
  | Table of string
  | Row of string * int

let overlaps a b =
  match a, b with
  | Named x, Named y -> x = y
  | Table t, Table u -> t = u
  | Table t, Row (u, _) | Row (u, _), Table t -> t = u
  | Row (t, i), Row (u, j) -> t = u && i = j
  | Named _, (Table _ | Row _) | (Table _ | Row _), Named _ -> false

let group_key = function
  | Named s -> s
  | Table t | Row (t, _) -> t

type op =
  | Read of int * obj
  | Ground_read of int * obj
  | Quasi_read of int * obj
  | Write of int * obj
  | Entangle of int * int list
  | Commit of int
  | Abort of int

type t = op list

let of_engine_event : Ent_txn.Engine.event -> op option = function
  | Ev_read (txn, T_table table) -> Some (Read (txn, Table table))
  | Ev_read (txn, T_row (table, row)) -> Some (Read (txn, Row (table, row)))
  | Ev_grounding_read (txn, table) -> Some (Ground_read (txn, Table table))
  | Ev_write (txn, table, row) -> Some (Write (txn, Row (table, row)))
  | Ev_commit txn -> Some (Commit txn)
  | Ev_abort txn -> Some (Abort txn)
  | Ev_begin _ -> None

let txns_of_op = function
  | Read (i, _) | Ground_read (i, _) | Quasi_read (i, _) | Write (i, _)
  | Commit i | Abort i -> [ i ]
  | Entangle (_, participants) -> participants

let txns schedule =
  List.sort_uniq Int.compare (List.concat_map txns_of_op schedule)

let committed schedule =
  List.filter_map
    (function
      | Commit i -> Some i
      | _ -> None)
    schedule

let aborted schedule =
  List.filter_map
    (function
      | Abort i -> Some i
      | _ -> None)
    schedule

let validity_errors schedule =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* one terminal op per transaction, in last position *)
  List.iter
    (fun txn ->
      let ops =
        List.filter (fun op -> List.mem txn (txns_of_op op)) schedule
      in
      let terminals =
        List.filter
          (function
            | Commit _ | Abort _ -> true
            | _ -> false)
          ops
      in
      (match terminals with
      | [ _ ] -> ()
      | [] -> error "transaction %d has no commit or abort" txn
      | _ -> error "transaction %d has several terminal operations" txn);
      (match List.rev ops with
      | (Commit _ | Abort _) :: _ -> ()
      | _ :: _ -> error "transaction %d continues after its terminal operation" txn
      | [] -> ()))
    (txns schedule);
  (* grounding-read blocks *)
  let pending : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun op ->
      match op with
      | Ground_read (i, _) -> Hashtbl.replace pending i ()
      | Quasi_read _ -> ()
      | Entangle (_, participants) ->
        List.iter (fun i -> Hashtbl.remove pending i) participants
      | Abort i -> Hashtbl.remove pending i
      | Read (i, _) | Write (i, _) ->
        if Hashtbl.mem pending i then
          error
            "transaction %d performs a read or write between a grounding read \
             and its entanglement"
            i
      | Commit i ->
        if Hashtbl.mem pending i then
          error "transaction %d commits with an unanswered grounding read" i)
    schedule;
  List.rev !errors

let expand_quasi_reads schedule =
  let n = List.length schedule in
  let ops = Array.of_list schedule in
  (* per-transaction buffer of grounding reads not yet entangled *)
  let buffers : (int, (int * obj) list) Hashtbl.t = Hashtbl.create 8 in
  let insertions : (int, op list) Hashtbl.t = Hashtbl.create 8 in
  let add_insertion pos op =
    let existing = Option.value ~default:[] (Hashtbl.find_opt insertions pos) in
    Hashtbl.replace insertions pos (existing @ [ op ])
  in
  for pos = 0 to n - 1 do
    match ops.(pos) with
    | Ground_read (i, x) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt buffers i) in
      Hashtbl.replace buffers i (existing @ [ (pos, x) ])
    | Entangle (_, participants) ->
      List.iter
        (fun j ->
          let reads = Option.value ~default:[] (Hashtbl.find_opt buffers j) in
          List.iter
            (fun (read_pos, x) ->
              List.iter
                (fun i -> if i <> j then add_insertion read_pos (Quasi_read (i, x)))
                participants)
            reads;
          Hashtbl.remove buffers j)
        participants
    | Abort i -> Hashtbl.remove buffers i
    | Read _ | Quasi_read _ | Write _ | Commit _ -> ()
  done;
  List.concat
    (List.mapi
       (fun pos op ->
         op :: Option.value ~default:[] (Hashtbl.find_opt insertions pos))
       schedule)

let pp_obj ppf = function
  | Named x -> Format.pp_print_string ppf x
  | Table t -> Format.pp_print_string ppf t
  | Row (t, i) -> Format.fprintf ppf "%s[%d]" t i

let pp_op ppf = function
  | Read (i, x) -> Format.fprintf ppf "R%d(%a)" i pp_obj x
  | Ground_read (i, x) -> Format.fprintf ppf "RG%d(%a)" i pp_obj x
  | Quasi_read (i, x) -> Format.fprintf ppf "RQ%d(%a)" i pp_obj x
  | Write (i, x) -> Format.fprintf ppf "W%d(%a)" i pp_obj x
  | Entangle (k, participants) ->
    Format.fprintf ppf "E%d{%a}" k
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      participants
  | Commit i -> Format.fprintf ppf "C%d" i
  | Abort i -> Format.fprintf ppf "A%d" i

let pp ppf schedule =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    pp_op ppf schedule

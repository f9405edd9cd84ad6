type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable versioned : bool;
}

let create () = { tables = Hashtbl.create 16; versioned = false }

let create_table t name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Catalog.create_table: table exists: " ^ name);
  let table = Table.create ~name schema in
  if t.versioned then Table.enable_versioning table;
  Hashtbl.add t.tables name table;
  table

let find t name = Hashtbl.find_opt t.tables name
let find_exn t name = Hashtbl.find t.tables name
let mem t name = Hashtbl.mem t.tables name
let drop t name = Hashtbl.remove t.tables name

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [])

let iter f t =
  List.iter (fun name -> f name (Hashtbl.find t.tables name)) (table_names t)

let versioned t = t.versioned

let enable_versioning t =
  if not t.versioned then begin
    t.versioned <- true;
    Hashtbl.iter (fun _ table -> Table.enable_versioning table) t.tables
  end

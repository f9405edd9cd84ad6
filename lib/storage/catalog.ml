type derived = ..
type derived += Stale

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable versioned : bool;
  derived : derived Atomic.t;  (* read by grounding on pool domains *)
}

let create () = { tables = Hashtbl.create 16; versioned = false; derived = Atomic.make Stale }

let derived t = Atomic.get t.derived
let set_derived t d = Atomic.set t.derived d
let stale t = Atomic.set t.derived Stale

let create_table t name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Catalog.create_table: table exists: " ^ name);
  let table = Table.create ~name ~on_index:(fun () -> stale t) schema in
  if t.versioned then Table.enable_versioning table;
  Hashtbl.add t.tables name table;
  stale t;
  table

let find t name = Hashtbl.find_opt t.tables name
let find_exn t name = Hashtbl.find t.tables name
let mem t name = Hashtbl.mem t.tables name
let drop t name =
  Hashtbl.remove t.tables name;
  stale t

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

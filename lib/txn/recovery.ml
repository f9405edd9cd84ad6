open Ent_storage
module Obs = Ent_obs.Obs

let m_replays = Obs.counter "txn.recovery.replays"
let m_records = Obs.counter "txn.recovery.records_replayed"
let m_survivors = Obs.counter "txn.recovery.survivors"
let m_group_victims = Obs.counter "txn.recovery.group_victims"

type analysis = {
  committed : int list;
  aborted : int list;
  incomplete : int list;
  groups : int list list;
  survivors : int list;
  group_victims : int list;
  pool : string list;
}

module Int_set = Set.Make (Int)

(* Union-find over transaction ids, for merging entanglement groups. *)
module Uf = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let rec find t x =
    match Hashtbl.find_opt t x with
    | None ->
      Hashtbl.replace t x x;
      x
    | Some parent when parent = x -> x
    | Some parent ->
      let root = find t parent in
      Hashtbl.replace t x root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb

  let groups t =
    let by_root = Hashtbl.create 16 in
    Hashtbl.iter
      (fun x _ ->
        let r = find t x in
        let existing = Option.value ~default:[] (Hashtbl.find_opt by_root r) in
        Hashtbl.replace by_root r (x :: existing))
      t;
    Hashtbl.fold (fun _ members acc -> List.sort Int.compare members :: acc)
      by_root []
end

let analyze records =
  (* The dormant pool is middleware state orthogonal to checkpoints: a
     pool snapshot taken before the last checkpoint is still the
     current pool if none followed, so scan the whole log for it. *)
  let pool = ref [] in
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Pool_snapshot programs -> pool := programs
      | _ -> ())
    records;
  (* everything before the last checkpoint is superseded by its table
     images *)
  let records = Wal.since_checkpoint records in
  let committed = ref (Int_set.singleton 0) in
  let aborted = ref Int_set.empty in
  let begun = ref (Int_set.singleton 0) in
  let uf = Uf.create () in
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Begin txn -> begun := Int_set.add txn !begun
      | Commit txn -> committed := Int_set.add txn !committed
      | Abort txn -> aborted := Int_set.add txn !aborted
      | Entangle_group { members; _ } -> (
        match members with
        | [] -> ()
        | first :: rest -> List.iter (fun m -> Uf.union uf first m) rest)
      | Pool_snapshot _ | Write _ | Create _ | Checkpoint _ | Drop _ -> ())
    records;
  let groups = Uf.groups uf in
  (* A committed transaction is a group victim when some member of its
     group is not committed. *)
  let initial_victims =
    List.concat_map
      (fun group ->
        if List.for_all (fun m -> Int_set.mem m !committed) group then []
        else List.filter (fun m -> Int_set.mem m !committed) group)
      groups
  in
  (* Cascade: a committed transaction whose write follows (on the same
     row) a write by a victim is itself a victim, transitively. *)
  let victims = ref (Int_set.of_list initial_victims) in
  let changed = ref true in
  while !changed do
    changed := false;
    let last_writer : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (r : Wal.record) ->
        match r with
        | Write { txn; table; row; _ } ->
          (match Hashtbl.find_opt last_writer (table, row) with
          | Some prev
            when Int_set.mem prev !victims
                 && Int_set.mem txn !committed
                 && (not (Int_set.mem txn !victims))
                 && prev <> txn ->
            victims := Int_set.add txn !victims;
            changed := true
          | _ -> ());
          Hashtbl.replace last_writer (table, row) txn
        | _ -> ())
      records
  done;
  let survivors = Int_set.diff !committed !victims in
  {
    committed = Int_set.elements !committed;
    aborted = Int_set.elements !aborted;
    incomplete =
      Int_set.elements
        (Int_set.diff !begun (Int_set.union !committed !aborted));
    groups;
    survivors = Int_set.elements survivors;
    group_victims = Int_set.elements !victims;
    pool = !pool;
  }

let apply_image ?writer table row ~before ~after =
  match before, after with
  | None, Some image -> Table.restore ?writer table row image
  | Some _, Some image -> ignore (Table.update ?writer table row image)
  | Some _, None -> ignore (Table.delete ?writer table row)
  | None, None -> ()

let schema_of columns =
  Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) columns)

let replay records =
  let analysis = analyze records in
  Obs.incr m_replays;
  Obs.incr ~n:(List.length analysis.survivors) m_survivors;
  Obs.incr ~n:(List.length analysis.group_victims) m_group_victims;
  let records = Wal.since_checkpoint records in
  Obs.incr ~n:(List.length records) m_records;
  let survivors = Int_set.of_list analysis.survivors in
  let catalog = Catalog.create () in
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Checkpoint { tables } ->
        List.iter
          (fun (name, columns, rows) ->
            let table = Catalog.create_table catalog name (schema_of columns) in
            List.iter (fun (id, row) -> Table.restore table id row) rows)
          tables
      | Create { table; columns } ->
        ignore (Catalog.create_table catalog table (schema_of columns))
      | Drop { table } -> Catalog.drop catalog table
      | Write { txn; table; row; before; after }
        when Int_set.mem txn survivors ->
        apply_image (Catalog.find_exn catalog table) row ~before ~after
      | Write _ | Begin _ | Commit _ | Abort _ | Entangle_group _
      | Pool_snapshot _ -> ())
    records;
  (catalog, analysis)

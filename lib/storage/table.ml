module Obs = Ent_obs.Obs

let m_inserts = Obs.counter "storage.table.inserts"
let m_updates = Obs.counter "storage.table.updates"
let m_deletes = Obs.counter "storage.table.deletes"
let m_scans = Obs.counter "storage.table.scans"
let m_rows_read = Obs.counter "storage.table.rows_read"
let m_index_lookups = Obs.counter "storage.index.lookups"
let m_scan_lookups = Obs.counter "storage.index.missing_lookups"
let m_range_lookups = Obs.counter "storage.index.range_lookups"
let m_range_scans = Obs.counter "storage.index.missing_range_lookups"

type row_id = int

type change = {
  c_before : Tuple.t option;
  c_after : Tuple.t option;
}

(* Per-write changelog entries kept for readers that validate cached
   results (the grounding cache): bounded, newest first, versions
   consecutive within the retained segment. [change_floor] is the
   highest version whose entry has been discarded — a reader that needs
   history from at or below the floor must treat the table as fully
   changed. *)
let changelog_cap = 256

(* One link of a row's version chain, newest first: [v_writer] made a
   write whose before-image was [v_before] ([None] = the row did not
   exist). The value *after* the newest entry's write is the live
   slot; the value after entry [i] is entry [i-1]'s before-image. *)
type ventry = {
  v_writer : int;
  v_before : Tuple.t option;
}

type t = {
  name : string;
  schema : Schema.t;
  mutable slots : Tuple.t option array;
  mutable next_id : int;
  mutable live : int;
  (* hash indexes keyed by their (sorted) column positions, ordered
     indexes keyed by their single position: O(1) discovery per
     statement instead of a structural List.find_opt *)
  indexes : (int list, Index.t) Hashtbl.t;
  ordered : (int, Ordered_index.t) Hashtbl.t;
  chains : (int, ventry list) Hashtbl.t;  (* row id -> versions, newest first *)
  (* versioned mode (switched on by the owning catalog once a
     snapshot-isolation transaction is submitted): every mutation
     additionally pushes a writer-tagged before-image onto the row's
     chain; off, no chain is ever touched. Read and written under [mu]. *)
  mutable versioned : bool;
  version : int Atomic.t;
  mutable changes : (int * change) list;  (* newest first *)
  mutable changes_len : int;
  mutable change_floor : int;
  mu : Mutex.t;
}

let create ?(name = "<anon>") schema =
  {
    name;
    schema;
    slots = Array.make 16 None;
    next_id = 0;
    live = 0;
    indexes = Hashtbl.create 4;
    ordered = Hashtbl.create 4;
    chains = Hashtbl.create 8;
    versioned = false;
    version = Atomic.make 0;
    changes = [];
    changes_len = 0;
    change_floor = 0;
    mu = Mutex.create ();
  }

let name t = t.name
let schema t = t.schema
let version t = Atomic.get t.version

(* Run [f] under the table mutex: IS (reader) and IX (writer) DB
   locks are compatible, so an index probe can race a concurrent
   insert's Hashtbl mutation. Never nested: internal helpers
   (note_change, iter, get, ...) do not lock themselves. *)
let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let enable_versioning t = locked t (fun () -> t.versioned <- true)

let note_change t before after =
  let version = Atomic.get t.version + 1 in
  Atomic.set t.version version;
  if t.changes_len >= changelog_cap then begin
    (* keep the newest half; everything older falls below the floor *)
    let keep = changelog_cap / 2 in
    let kept = ref [] and n = ref 0 and floor = ref t.change_floor in
    List.iter
      (fun ((ver, _) as entry) ->
        if !n < keep then begin
          kept := entry :: !kept;
          incr n
        end
        else if ver > !floor then floor := ver)
      t.changes;
    t.changes <- List.rev !kept;
    t.changes_len <- !n;
    t.change_floor <- !floor
  end;
  t.changes <- (version, { c_before = before; c_after = after }) :: t.changes;
  t.changes_len <- t.changes_len + 1

(* A structural change (new index changing plan-dependent result order,
   bulk clear) conservatively invalidates all history. *)
let note_reshape t =
  Atomic.set t.version (Atomic.get t.version + 1);
  t.changes <- [];
  t.changes_len <- 0;
  t.change_floor <- Atomic.get t.version

let changes_since t since =
  locked t (fun () ->
      if since < t.change_floor then None
      else if since >= Atomic.get t.version then Some []
      else begin
        let rec collect acc = function
          | (ver, change) :: rest when ver > since ->
            collect (change :: acc) rest
          | _ -> acc
        in
        Some (collect [] t.changes)
      end)

(* Called under [locked] by every mutator: in versioned mode, push the
   before-image onto the row's chain, tagged with the writing
   transaction (0 = bootstrap/recovery, visible to everyone). *)
let note_version t ~writer id before =
  if t.versioned then
    let entries = Option.value ~default:[] (Hashtbl.find_opt t.chains id) in
    Hashtbl.replace t.chains id ({ v_writer = writer; v_before = before } :: entries)

let ensure_capacity t id =
  let n = Array.length t.slots in
  if id >= n then begin
    let cap = max (n * 2) (id + 1) in
    let slots = Array.make cap None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end

let index_insert t row id =
  Hashtbl.iter (fun _ ix -> Index.insert ix (Index.key_of ix row) id) t.indexes;
  Hashtbl.iter
    (fun position ox -> Ordered_index.insert ox (Tuple.get row position) id)
    t.ordered

let index_remove t row id =
  Hashtbl.iter (fun _ ix -> Index.remove ix (Index.key_of ix row) id) t.indexes;
  Hashtbl.iter
    (fun position ox -> Ordered_index.remove ox (Tuple.get row position) id)
    t.ordered

let insert ?(writer = 0) t row =
  Obs.incr m_inserts;
  let row = Tuple.of_array t.schema row in
  locked t (fun () ->
      let id = t.next_id in
      ensure_capacity t id;
      t.slots.(id) <- Some row;
      t.next_id <- id + 1;
      t.live <- t.live + 1;
      index_insert t row id;
      note_change t None (Some row);
      note_version t ~writer id None;
      id)

let get t id =
  if id < 0 || id >= t.next_id then None else t.slots.(id)

let delete ?(writer = 0) t id =
  locked t (fun () ->
      match get t id with
      | None -> None
      | Some row ->
        Obs.incr m_deletes;
        t.slots.(id) <- None;
        t.live <- t.live - 1;
        index_remove t row id;
        note_change t (Some row) None;
        note_version t ~writer id (Some row);
        Some row)

let update ?(writer = 0) t id row =
  locked t (fun () ->
      match get t id with
      | None -> None
      | Some old ->
        Obs.incr m_updates;
        let row = Tuple.of_array t.schema row in
        t.slots.(id) <- Some row;
        index_remove t old id;
        index_insert t row id;
        note_change t (Some old) (Some row);
        note_version t ~writer id (Some old);
        Some old)

let restore ?(writer = 0) t id row =
  if id < 0 then invalid_arg "Table.restore: negative row id";
  let row = Tuple.of_array t.schema row in
  locked t (fun () ->
      ensure_capacity t id;
      (match t.slots.(id) with
      | Some _ -> invalid_arg "Table.restore: row id occupied"
      | None -> ());
      t.slots.(id) <- Some row;
      if id >= t.next_id then t.next_id <- id + 1;
      t.live <- t.live + 1;
      index_insert t row id;
      note_change t None (Some row);
      note_version t ~writer id None)

let cardinal t = t.live

let iter f t =
  for id = 0 to t.next_id - 1 do
    match t.slots.(id) with
    | Some row -> f id row
    | None -> ()
  done

let fold f t init =
  let acc = ref init in
  iter (fun id row -> acc := f id row !acc) t;
  !acc

(* Raw slot iteration as a sequence, forced under the mutex by
   [published] below. *)
let seq_slots t =
  let limit = t.next_id in
  let rec go id () =
    if id >= limit then Seq.Nil
    else
      match t.slots.(id) with
      | Some row -> Seq.Cons ((id, row), go (id + 1))
      | None -> go (id + 1) ()
  in
  go 0

let counted seq =
  Seq.map
    (fun pair ->
      Obs.incr m_rows_read;
      pair)
    seq

(* Read-path publication: force the raw sequence to a list under the
   table mutex, then stream the list. Row-read metrics are charged per
   row consumed. *)
let published t raw =
  counted (List.to_seq (locked t (fun () -> List.of_seq (raw ()))))

let to_seq t =
  Obs.incr m_scans;
  published t (fun () -> seq_slots t)

let to_list t = List.of_seq (to_seq t)

(* Lookups canonicalize the probe to sorted column positions, so a
   WHERE clause listing columns in any order still finds the index. *)
let canonical_probe positions key =
  let pairs = List.combine positions key in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs in
  (List.map fst sorted, List.map snd sorted)

let find_index t positions = Hashtbl.find_opt t.indexes positions

(* The scan-path probe: does [row] carry [key] at [positions]? *)
let key_matches ~positions key (_, row) =
  List.equal Value.equal (List.map (fun i -> Tuple.get row i) positions) key

let add_index t ~positions =
  let positions = List.sort_uniq Int.compare positions in
  locked t (fun () ->
      match find_index t positions with
      | Some _ -> ()
      | None ->
        let ix = Index.create ~positions in
        iter (fun id row -> Index.insert ix (Index.key_of ix row) id) t;
        Hashtbl.replace t.indexes positions ix;
        (* a new index changes which access paths serve which reads;
           cached readers must not mix results across the change *)
        note_reshape t)

let lookup_seq t ~positions key =
  let positions, key = canonical_probe positions key in
  match find_index t positions with
  | Some ix ->
    Obs.incr m_index_lookups;
    published t (fun () ->
        Seq.filter_map
          (fun id -> Option.map (fun row -> (id, row)) (get t id))
          (List.to_seq (Index.lookup ix key)))
  | None ->
    Obs.incr m_scan_lookups;
    published t (fun () -> Seq.filter (key_matches ~positions key) (seq_slots t))

let lookup t ~positions key = List.of_seq (lookup_seq t ~positions key)

let add_ordered_index t ~position =
  locked t (fun () ->
      if not (Hashtbl.mem t.ordered position) then begin
        let ox = Ordered_index.create ~position in
        iter
          (fun id row -> Ordered_index.insert ox (Tuple.get row position) id)
          t;
        Hashtbl.replace t.ordered position ox;
        note_reshape t
      end)

let has_ordered_index t ~position = Hashtbl.mem t.ordered position

let in_bounds ~lo ~hi v =
  (match lo with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b >= 0
  | Ordered_index.Exclusive b -> Value.compare v b > 0)
  &&
  match hi with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b <= 0
  | Ordered_index.Exclusive b -> Value.compare v b < 0

let range_lookup_seq t ~position ~lo ~hi =
  match Hashtbl.find_opt t.ordered position with
  | Some ox ->
    Obs.incr m_range_lookups;
    published t (fun () ->
        Seq.filter_map
          (fun id -> Option.map (fun row -> (id, row)) (get t id))
          (List.to_seq (Ordered_index.range ox ~lo ~hi)))
  | None ->
    Obs.incr m_range_scans;
    published t (fun () ->
        Seq.filter
          (fun (_, row) -> in_bounds ~lo ~hi (Tuple.get row position))
          (seq_slots t))

let range_lookup t ~position ~lo ~hi =
  List.of_seq (range_lookup_seq t ~position ~lo ~hi)

(* --- snapshot reads over the version chains ---

   [visible w] decides whether writer [w]'s effects belong to the
   reader's snapshot. The row as the snapshot sees it is recovered by
   walking the chain newest-first: start from the live slot (the value
   after the newest write) and undo every invisible write by stepping
   to its before-image; the first visible writer terminates the walk.
   A row with an empty (or absent) chain is all-committed-long-ago and
   read straight from the slot. *)

let value_at_unlocked t id ~visible =
  let slot = if id < 0 || id >= t.next_id then None else t.slots.(id) in
  match Hashtbl.find_opt t.chains id with
  | None -> slot
  | Some entries ->
    let rec walk value = function
      | [] -> value
      | e :: rest -> if visible e.v_writer then value else walk e.v_before rest
    in
    walk slot entries

let read_at t id ~visible =
  locked t (fun () -> value_at_unlocked t id ~visible)

(* Snapshot scans materialize under the mutex too, but they must also
   visit deleted slots whose chains still hold a version some snapshot
   can see, so [seq_slots] (live slots only) does not apply. Row-read
   metrics are charged per element consumed, as on the live paths. *)
let rows_at t ~visible =
  locked t (fun () ->
      let acc = ref [] in
      for id = t.next_id - 1 downto 0 do
        match value_at_unlocked t id ~visible with
        | Some row -> acc := (id, row) :: !acc
        | None -> ()
      done;
      !acc)

let to_seq_at t ~visible =
  Obs.incr m_scans;
  counted (List.to_seq (rows_at t ~visible))

(* Indexed snapshot probe. A row the snapshot sees with a matching key
   either has no chain, so its live slot matches and the index holds
   it, or has a chain. The candidates are therefore the index's ids
   plus every chained id; each is rebuilt as the snapshot sees it and
   filtered, in ascending id order like [rows_at]. *)
let probe_at t ~visible ids keep =
  counted
    (List.to_seq
       (locked t (fun () ->
            let ids =
              List.sort_uniq Int.compare
                (Hashtbl.fold (fun id _ acc -> id :: acc) t.chains (ids ()))
            in
            List.filter_map
              (fun id ->
                match value_at_unlocked t id ~visible with
                | Some row when keep (id, row) -> Some (id, row)
                | _ -> None)
              ids)))

let lookup_seq_at t ~positions key ~visible =
  let positions, key = canonical_probe positions key in
  match find_index t positions with
  | Some ix ->
    Obs.incr m_index_lookups;
    probe_at t ~visible
      (fun () -> Index.lookup ix key)
      (key_matches ~positions key)
  | None ->
    Obs.incr m_scan_lookups;
    counted
      (List.to_seq
         (List.filter (key_matches ~positions key) (rows_at t ~visible)))

let range_lookup_seq_at t ~position ~lo ~hi ~visible =
  let in_range (_, row) = in_bounds ~lo ~hi (Tuple.get row position) in
  match Hashtbl.find_opt t.ordered position with
  | Some ox ->
    Obs.incr m_range_lookups;
    probe_at t ~visible (fun () -> Ordered_index.range ox ~lo ~hi) in_range
  | None ->
    Obs.incr m_range_scans;
    counted (List.to_seq (List.filter in_range (rows_at t ~visible)))

(* [gc_versions t ~obsolete] truncates every chain at the newest entry
   whose writer is obsolete (committed before the oldest live snapshot,
   or finished aborting): such an entry's effects are visible to every
   possible reader, so its before-image — and everything older — can
   never be reached by a chain walk again. *)
let gc_versions t ~obsolete =
  locked t (fun () ->
      let removed = ref 0 in
      let truncated =
        Hashtbl.fold
          (fun id entries acc ->
            let rec keep = function
              | [] -> []
              | e :: _ when obsolete e.v_writer -> []
              | e :: rest -> e :: keep rest
            in
            let kept = keep entries in
            if List.length kept = List.length entries then acc
            else begin
              removed := !removed + List.length entries - List.length kept;
              (id, kept) :: acc
            end)
          t.chains []
      in
      List.iter
        (fun (id, kept) ->
          if kept = [] then Hashtbl.remove t.chains id
          else Hashtbl.replace t.chains id kept)
        truncated;
      !removed)

let chain_entries t =
  locked t (fun () ->
      Hashtbl.fold (fun _ es acc -> acc + List.length es) t.chains 0)

let clear t =
  locked t (fun () ->
      iter (fun id row -> index_remove t row id) t;
      Array.fill t.slots 0 (Array.length t.slots) None;
      Hashtbl.reset t.chains;
      t.live <- 0;
      note_reshape t)

open Ent_storage
module Obs = Ent_obs.Obs
module Event = Ent_obs.Event
module Stamped = Ent_obs.Stamped

let m_begins = Obs.counter "txn.engine.begins"
let m_commits = Obs.counter "txn.engine.commits"
let m_aborts = Obs.counter "txn.engine.aborts"
let m_blocks = Obs.counter "txn.engine.lock_blocks"
let m_deadlocks = Obs.counter "txn.engine.deadlock_victims"
let m_undone = Obs.counter "txn.engine.writes_undone"
let m_checkpoints = Obs.counter "txn.engine.checkpoints"

let m_si_validations = Obs.counter "txn.si_validations"
let m_mvcc_chain_entries = Obs.gauge "storage.mvcc.chain_entries"
let m_mvcc_versions_gcd = Obs.counter "storage.mvcc.versions_gcd"

exception Blocked of int
exception Deadlock_victim of int
exception Si_conflict of int

type level =
  | Serializable_2pl
  | Snapshot

let level_to_string = function
  | Serializable_2pl -> "2pl"
  | Snapshot -> "si"

let level_of_string = function
  | "2pl" | "serializable" -> Some Serializable_2pl
  | "si" | "snapshot" -> Some Snapshot
  | _ -> None

type read_target =
  | T_table of string
  | T_row of string * int

type event =
  | Ev_read of int * read_target
  | Ev_grounding_read of int * string
  | Ev_write of int * string * int
  | Ev_begin of int * level
  | Ev_commit of int
  | Ev_abort of int

type write = {
  w_seq : int;  (* global write sequence, for cross-transaction undo order *)
  w_table : string;
  w_row : int;
  w_before : Tuple.t option;
  w_after : Tuple.t option;
}

(* A transaction's handle: its caller keeps it from [begin_txn] to
   [commit] or [abort], so no operation in between looks the
   transaction up. [live] turns false at [finish], and every operation
   refuses a finished handle. *)
type txn = {
  id : int;
  level : level;
  begin_ts : int;  (* commit-stamp counter at begin: the snapshot *)
  mutable live : bool;
  mutable writes : write list;  (* newest first *)
  mutable write_count : int;
  mutable grounding_tables : string list;
}

type t = {
  catalog : Catalog.t;
  locks : Lock.t;
  wal : Wal.t option;
  txns : (int, txn) Hashtbl.t;
      (* live transactions only, by id: written at begin and finish,
         read by [settled], [take_wakeups] and [checkpoint] *)
  mutable next_txn : int;
  mutable wakeups : int list;
  mutable on_event : (event -> unit) option;
  mutable constraints : (string * (Catalog.t -> bool)) list;
  write_seq : int Atomic.t;
  (* MVCC bookkeeping, populated only while [Catalog.versioned]:
     [commit_stamp] is the logical commit clock (a transaction's
     snapshot is the clock value at its begin), [committed_at] maps
     finished writers to their commit stamp (entries at or below every
     live snapshot are pruned by [gc_versions] — a missing, inactive
     writer therefore committed long ago, or aborted and fully
     compensated, and is visible either way), [last_write] is the
     newest committed stamp per (table, row) for first-committer-wins
     validation, and [snapshots] registers live snapshot transactions'
     begin stamps so GC knows the oldest snapshot. All three maps are
     guarded by [mu]. *)
  commit_stamp : int Atomic.t;
  committed_at : (int, int) Hashtbl.t;
  last_write : (string * int, int) Hashtbl.t;
  snapshots : (int, int) Hashtbl.t;
  (* [mu] guards the live table, id allocation, the wakeup list and
     the MVCC maps above; no statement takes it, since data access and
     savepoints go through the caller's handle;
     [obs_mu] serializes [on_event] dispatch so downstream observers
     (the online certifier above all) see one linear event stream.
     That stream respects the conflict order: every Ev_read/Ev_write is
     emitted while the corresponding DB lock is held, so two
     conflicting operations' events cannot reorder across a
     release/acquire boundary. Both mutexes are uncontended (and the
     interleavings identical) in single-domain deterministic mode.
     Order, where nested: mu -> obs_mu; neither is held while calling
     back into the engine.

     [deferred] takes [obs_mu] off the parallel hot path: while set
     (the scheduler sets it around parallel phases), [emit] pushes to
     the [pending] {!Stamped} buffer instead of dispatching,
     and [flush_events] replays it in stamp order at the phase
     boundary. The replay is an exact linearization of emission order,
     so the conflict-order guarantee above carries over verbatim. *)
  mu : Mutex.t;
  obs_mu : Mutex.t;
  deferred : bool Atomic.t;
  pending : event Stamped.t;
  ddl : Ent_sql.Eval.access;
      (* schema reads and DDL, shared by every access record *)
}

let log_to wal record =
  match wal with
  | Some wal -> ignore (Wal.append wal record)
  | None -> ()

let schema_columns schema =
  List.map (fun (c : Schema.column) -> (c.name, c.ty)) (Schema.columns schema)

let create_table_in catalog wal name schema =
  let table = Catalog.create_table catalog name schema in
  log_to wal (Create { table = name; columns = schema_columns schema });
  table

(* The catalog's direct access with CREATE TABLE and DROP TABLE logged.
   DDL inside transactions is not part of the paper's model: execute it
   immediately and log it. *)
let ddl_access catalog wal : Ent_sql.Eval.access =
  {
    (Ent_sql.Eval.direct_access catalog) with
    create = (fun name schema -> ignore (create_table_in catalog wal name schema));
    drop =
      (fun name ->
        Catalog.drop catalog name;
        log_to wal (Drop { table = name }));
  }

let create ?(wal = false) catalog =
  let wal = if wal then Some (Wal.create ()) else None in
  {
    catalog;
    locks = Lock.create ();
    wal;
    txns = Hashtbl.create 32;
    next_txn = 1;
    wakeups = [];
    on_event = None;
    constraints = [];
    write_seq = Atomic.make 0;
    commit_stamp = Atomic.make 0;
    committed_at = Hashtbl.create 32;
    last_write = Hashtbl.create 64;
    snapshots = Hashtbl.create 8;
    mu = Mutex.create ();
    obs_mu = Mutex.create ();
    deferred = Atomic.make false;
    pending = Stamped.create ();
    ddl = ddl_access catalog wal;
  }

let with_mu mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

let catalog t = t.catalog
let log t = t.wal
let locks t = t.locks

let add_on_event t f =
  match t.on_event with
  | None -> t.on_event <- Some f
  | Some g ->
    t.on_event <-
      Some
        (fun ev ->
          g ev;
          f ev)

let emit t ev =
  match t.on_event with
  | None -> ()
  | Some f ->
    if Atomic.get t.deferred then Stamped.push t.pending ev
    else with_mu t.obs_mu (fun () -> f ev)

let set_deferred_events t b = Atomic.set t.deferred b

let flush_events t =
  match (Stamped.drain t.pending, t.on_event) with
  | [], _ | _, None -> ()
  | evs, Some f -> with_mu t.obs_mu (fun () -> List.iter f evs)

let log_record t record = log_to t.wal record
let create_table t name schema = create_table_in t.catalog t.wal name schema

let load t name row =
  let table = Catalog.find_exn t.catalog name in
  let id = Table.insert table row in
  log_record t (Write { txn = 0; table = name; row = id; before = None; after = Some row });
  id

let begin_txn ?(isolation = Serializable_2pl) t =
  let txn =
    with_mu t.mu (fun () ->
        let id = t.next_txn in
        t.next_txn <- id + 1;
        let begin_ts = Atomic.get t.commit_stamp in
        let txn =
          { id; level = isolation; begin_ts; live = true; writes = [];
            write_count = 0; grounding_tables = [] }
        in
        Hashtbl.replace t.txns id txn;
        if isolation = Snapshot then Hashtbl.replace t.snapshots id begin_ts;
        txn)
  in
  log_record t (Begin txn.id);
  emit t (Ev_begin (txn.id, isolation));
  Obs.incr m_begins;
  txn

let id txn = txn.id
let is_live txn = txn.live

let live_exn txn =
  if not txn.live then
    invalid_arg (Printf.sprintf "Engine: transaction %d is not active" txn.id)

(* Writer [w]'s effects are settled as of commit stamp [stamp] when it
   committed at or before [stamp], or is no longer live: a writer with
   no [committed_at] entry that is not live either committed before
   the oldest live snapshot (its entry was pruned) or aborted — and an
   aborted writer's chain carries its compensations too, so treating
   the whole pair as settled lands on the original before-image. Live
   uncommitted writers are unsettled. Snapshot visibility and
   version-chain GC both ask this. *)
let settled t stamp w =
  with_mu t.mu (fun () ->
      match Hashtbl.find_opt t.committed_at w with
      | Some committed -> committed <= stamp
      | None -> not (Hashtbl.mem t.txns w))

(* Snapshot visibility: writer [w]'s effects belong to [self]'s
   snapshot when [w] is the bootstrap pseudo-transaction, [self]
   itself, or settled as of [self]'s begin stamp. *)
let visible_of t self begin_ts w = w = 0 || w = self || settled t begin_ts w

(* Acquire a lock or suspend/abort the requester. *)
let acquire t txn_id resource mode =
  match Lock.request t.locks ~txn:txn_id resource mode with
  | Lock.Granted -> ()
  | Lock.Waiting -> (
    match Lock.deadlock_cycle t.locks ~txn:txn_id with
    | Some _ ->
      (* Break the cycle by sacrificing the requester; the caller must
         abort it, which dequeues the request and releases its locks. *)
      Obs.incr m_deadlocks;
      raise (Deadlock_victim txn_id)
    | None ->
      Obs.incr m_blocks;
      (* Guarded: the event payload takes every lock shard for
         Lock.blockers and formats the resource, so do not pay for it
         when event logging is off. *)
      if Event.logging () then
        Event.emit ~txn:txn_id
          (Event.Lock_wait
             {
               resource = Lock.resource_to_string resource;
               holders = Lock.blockers t.locks ~txn:txn_id;
             });
      raise (Blocked txn_id))

let table_of t name =
  match Catalog.find t.catalog name with
  | Some table -> table
  | None -> raise (Ent_sql.Eval.Eval_error ("unknown table " ^ name))

let record_write t txn table_name row before after =
  let w_seq = Atomic.fetch_and_add t.write_seq 1 + 1 in
  txn.writes <-
    { w_seq; w_table = table_name; w_row = row;
      w_before = before; w_after = after }
    :: txn.writes;
  txn.write_count <- txn.write_count + 1;
  log_record t
    (Write { txn = txn.id; table = table_name; row; before; after });
  emit t (Ev_write (txn.id, table_name, row))

(* Register [name] as one of the transaction's quasi-read tables and
   emit the grounding-read event. *)
let register_grounding t txn name =
  live_exn txn;
  if not (List.mem name txn.grounding_tables) then
    txn.grounding_tables <- name :: txn.grounding_tables;
  emit t (Ev_grounding_read (txn.id, name))

(* The write half of an access record, the same under both levels:
   writes take IX on the table and X on the row, tag the version chain
   with the writer and log before/after images. The levels differ only
   in what an update or delete of a vanished row raises: [vanished op]
   with [op] "update" or "delete". *)
let write_access t txn ~vanished : Ent_sql.Eval.access =
  let txn_id = txn.id in
  let change op name id after apply =
    live_exn txn;
    acquire t txn_id (Lock.Table name) Lock.IX;
    acquire t txn_id (Lock.Row (name, id)) Lock.X;
    match apply (table_of t name) with
    | Some before -> record_write t txn name id (Some before) after
    | None -> raise (vanished op)
  in
  {
    t.ddl with
    insert =
      (fun name row ->
        live_exn txn;
        acquire t txn_id (Lock.Table name) Lock.IX;
        let id = Table.insert ~writer:txn_id (table_of t name) row in
        (match Lock.request t.locks ~txn:txn_id (Lock.Row (name, id)) Lock.X with
        | Lock.Granted -> ()
        | Lock.Waiting -> assert false (* fresh row: no competitors *));
        record_write t txn name id None (Some row);
        id);
    update =
      (fun name id row ->
        change "update" name id (Some row) (fun table ->
            Table.update ~writer:txn_id table id row));
    delete =
      (fun name id ->
        change "delete" name id None (fun table ->
            Table.delete ~writer:txn_id table id));
  }

let access_2pl t txn ~grounding ~lock_reads : Ent_sql.Eval.access =
  let txn_id = txn.id in
  let read_lock name mode =
    if lock_reads then acquire t txn_id (Lock.Table name) mode
  in
  let read_table name =
    (* Full scans take a table-level shared lock whether grounding or
       not: there is no finer lock that protects against phantoms. *)
    read_lock name Lock.S;
    if grounding then register_grounding t txn name
    else emit t (Ev_read (txn_id, T_table name))
  in
  (* Indexed lookups take an intention lock here plus row locks on the
     returned rows; grounding lookups escalate to a table lock. Returns
     the wrapper for the row stream: row S locks attach to it, so a
     consumer that stops early (LIMIT) locks only the rows it saw. *)
  let read_rows name =
    if grounding then begin
      read_lock name Lock.S;
      register_grounding t txn name;
      Fun.id
    end
    else begin
      read_lock name Lock.IS;
      Seq.map (fun (id, row) ->
          if lock_reads then acquire t txn_id (Lock.Row (name, id)) Lock.S;
          emit t (Ev_read (txn_id, T_row (name, id)));
          (id, row))
    end
  in
  {
    (write_access t txn ~vanished:(fun op ->
         Ent_sql.Eval.Eval_error (op ^ " of missing row")))
    with
    scan =
      (fun name ->
        (* the table-level lock is taken up front; rows then stream
           without further locking *)
        read_table name;
        Table.to_seq (table_of t name));
    lookup =
      (fun name ~positions key ->
        let rows = read_rows name in
        rows (Table.lookup_seq (table_of t name) ~positions key));
    range =
      (fun name ~position ~lo ~hi ->
        (* like an indexed lookup: intention lock plus row locks *)
        let rows = read_rows name in
        rows (Table.range_lookup_seq (table_of t name) ~position ~lo ~hi));
  }

(* Snapshot data access: every read reconstructs the row state as of
   the transaction's begin stamp from the version chains and takes NO
   lock — the central MVCC payoff; grounding reads still register
   their quasi-read tables and emit grounding events, they just cannot
   block behind writers. Writes are {!write_access}'s, leaving
   conflicts with concurrently committed writers to commit-time
   first-committer-wins validation ({!validate_snapshot}); an
   update/delete whose victim row already vanished from the live table
   is doomed there anyway and raises [Si_conflict] immediately. *)
let access_snapshot t txn ~grounding : Ent_sql.Eval.access =
  let txn_id = txn.id in
  let visible = visible_of t txn_id txn.begin_ts in
  let read_rows name =
    if grounding then begin
      register_grounding t txn name;
      Fun.id
    end
    else
      Seq.map (fun (id, row) ->
          emit t (Ev_read (txn_id, T_row (name, id)));
          (id, row))
  in
  {
    (write_access t txn ~vanished:(fun _ -> Si_conflict txn_id)) with
    scan =
      (fun name ->
        if grounding then register_grounding t txn name
        else emit t (Ev_read (txn_id, T_table name));
        Table.to_seq_at (table_of t name) ~visible);
    lookup =
      (fun name ~positions key ->
        let rows = read_rows name in
        rows (Table.lookup_seq_at (table_of t name) ~positions key ~visible));
    range =
      (fun name ~position ~lo ~hi ->
        let rows = read_rows name in
        rows (Table.range_lookup_seq_at (table_of t name) ~position ~lo ~hi ~visible));
  }

let access t txn ~grounding ?(lock_reads = true) () =
  live_exn txn;
  match txn.level with
  | Snapshot -> access_snapshot t txn ~grounding
  | Serializable_2pl -> access_2pl t txn ~grounding ~lock_reads

(* Reproduce the locking side effects of a grounding computation
   without re-reading the data: used when a cached grounding is served,
   so a hit acquires exactly the table-S locks (and registers exactly
   the quasi-read tables) the recomputation would have. Raises
   [Blocked]/[Deadlock_victim] like any grounding read. *)
let touch_grounding_tables t txn ?(lock_reads = true) tables =
  List.iter
    (fun name ->
      ignore (table_of t name);
      if lock_reads then acquire t txn.id (Lock.Table name) Lock.S;
      register_grounding t txn name)
    tables

let add_constraint t ~name predicate =
  t.constraints <- t.constraints @ [ (name, predicate) ]

let violated_constraint t =
  List.find_map
    (fun (name, predicate) -> if predicate t.catalog then None else Some name)
    t.constraints

let savepoint txn =
  live_exn txn;
  txn.write_count

(* Undo one write, logging the compensation so that redo-only recovery
   replays to the right state: the write's image pair, swapped.
   Compensations carry the aborting writer's tag too, so a snapshot
   that deems the txn visible sees write+undo as a pair and lands back
   on the pre-transaction image. *)
let undo_write t txn_id w =
  Obs.incr m_undone;
  let before = w.w_after and after = w.w_before in
  Recovery.apply_image ~writer:txn_id (table_of t w.w_table) w.w_row ~before
    ~after;
  log_record t
    (Write { txn = txn_id; table = w.w_table; row = w.w_row; before; after })

(* Undo writes down to a savepoint. *)
let rollback_to t txn sp =
  live_exn txn;
  while txn.write_count > sp do
    match txn.writes with
    | [] -> assert false
    | w :: rest ->
      txn.writes <- rest;
      txn.write_count <- txn.write_count - 1;
      undo_write t txn.id w
  done

let finish t txn =
  txn.live <- false;
  let woken = Lock.release_all t.locks ~txn:txn.id in
  with_mu t.mu (fun () ->
      Hashtbl.remove t.txns txn.id;
      if txn.level = Snapshot then Hashtbl.remove t.snapshots txn.id;
      t.wakeups <- t.wakeups @ woken)

(* Abort live transactions together. Entanglement-group members share
   lock ownership, so their writes to the same row interleave;
   restoring before-images per member would resurrect overwritten
   values. Undo the MERGED write log of all members in reverse global
   order; a lone abort is the one-member case. *)
let abort_txns t ~reason txns =
  let tagged =
    List.concat_map (fun txn -> List.map (fun w -> (txn.id, w)) txn.writes) txns
  in
  List.iter
    (fun (id, w) -> undo_write t id w)
    (List.sort (fun (_, a) (_, b) -> Int.compare b.w_seq a.w_seq) tagged);
  List.iter
    (fun txn ->
      log_record t (Abort txn.id);
      emit t (Ev_abort txn.id);
      Event.emit ~txn:txn.id (Event.Abort { reason });
      Obs.incr m_aborts;
      finish t txn)
    txns

let abort t txn =
  live_exn txn;
  abort_txns t ~reason:"rollback" [ txn ]

let abort_group t txns = abort_txns t ~reason:"group" (List.filter is_live txns)

(* First-committer-wins validation: a snapshot transaction may commit
   only if no other transaction committed a write to any of its written
   rows after its snapshot was taken. Returns the first conflicting
   (table, row), or [None] when the transaction may commit (always for
   2PL transactions — their row X locks already serialize writes). *)
let validate_snapshot t txn =
  live_exn txn;
  if txn.level <> Snapshot then None
  else begin
    Obs.incr m_si_validations;
    with_mu t.mu (fun () ->
        List.find_map
          (fun w ->
            match Hashtbl.find_opt t.last_write (w.w_table, w.w_row) with
            | Some stamp when stamp > txn.begin_ts ->
              Some (w.w_table, w.w_row)
            | _ -> None)
          txn.writes)
  end

let commit t txn =
  live_exn txn;
  let txn_id = txn.id in
  if Catalog.versioned t.catalog then begin
    let stamp = Atomic.fetch_and_add t.commit_stamp 1 + 1 in
    with_mu t.mu (fun () ->
        Hashtbl.replace t.committed_at txn_id stamp;
        List.iter
          (fun w -> Hashtbl.replace t.last_write (w.w_table, w.w_row) stamp)
          txn.writes)
  end;
  log_record t (Commit txn_id);
  emit t (Ev_commit txn_id);
  Event.emit ~txn:txn_id Event.Commit;
  Obs.incr m_commits;
  finish t txn

(* Sharp checkpoint: only legal at quiescence. *)
let checkpoint t =
  if with_mu t.mu (fun () -> Hashtbl.length t.txns > 0) then
    invalid_arg "Engine.checkpoint: active transactions (sharp checkpoints only)";
  let tables =
    List.map
      (fun name ->
        let table = Catalog.find_exn t.catalog name in
        (name, schema_columns (Table.schema table), Table.to_list table))
      (Catalog.table_names t.catalog)
  in
  Obs.incr m_checkpoints;
  log_record t (Checkpoint { tables })

(* Post-crash boot: the catalog is the replayed store, the WAL
   continues from the crash image (durable records are not re-logged,
   so a crash during recovery loses nothing), transaction ids resume
   above the image's high-water mark, and a sharp checkpoint marks the
   recovery barrier — pre-crash entanglement groups and their victims
   stay behind it and cannot taint post-recovery analysis. *)
let recover records =
  let catalog, analysis = Recovery.replay records in
  let t = create ~wal:true catalog in
  (match t.wal with
  | Some wal -> Wal.restore wal records
  | None -> ());
  let high_water =
    List.fold_left
      (fun acc (r : Wal.record) ->
        match r with
        | Begin txn | Commit txn | Abort txn -> max acc txn
        | Write { txn; _ } -> max acc txn
        | Entangle_group { members; _ } -> List.fold_left max acc members
        | Create _ | Pool_snapshot _ | Checkpoint _ | Drop _ -> acc)
      0 records
  in
  t.next_txn <- high_water + 1;
  checkpoint t;
  (t, analysis)

let log_entangle_group t ~event ~members =
  log_record t (Entangle_group { event; members })

let set_lock_group t ~txn ~group = Lock.set_group t.locks ~txn ~group

let log_pool_snapshot t programs = log_record t (Pool_snapshot programs)

let take_wakeups t =
  let woken =
    with_mu t.mu (fun () ->
        let w = t.wakeups in
        t.wakeups <- [];
        w)
  in
  let woken = List.sort_uniq Int.compare woken in
  (* Only report transactions that are still alive and no longer
     waiting on anything. *)
  let live id = with_mu t.mu (fun () -> Hashtbl.mem t.txns id) in
  List.filter (fun id -> live id && not (Lock.is_waiting t.locks ~txn:id)) woken

let grounding_reads txn = txn.grounding_tables

let sum_tables t f =
  List.fold_left
    (fun acc name -> acc + f (Catalog.find_exn t.catalog name))
    0
    (Catalog.table_names t.catalog)

(* Total retained version-chain entries across the catalog (0 at
   quiescence once {!gc_versions} ran — the entsim invariant). *)
let chain_entries t = sum_tables t Table.chain_entries

(* Version-chain garbage collection. A chain entry is unreachable when
   its writer's effects are visible to every snapshot that will ever be
   taken: bootstrap writes and writers settled as of the oldest live
   snapshot. Also prunes the commit-stamp maps below the same horizon —
   safe because a writer missing from [committed_at] that is no longer
   live counts as settled, which is exactly what pruning implies. *)
let gc_versions t =
  if Catalog.versioned t.catalog then begin
    let s_min =
      with_mu t.mu (fun () ->
          Hashtbl.fold
            (fun _ ts acc -> min ts acc)
            t.snapshots
            (Atomic.get t.commit_stamp))
    in
    let obsolete w = w = 0 || settled t s_min w in
    let removed = sum_tables t (Table.gc_versions ~obsolete) in
    if removed > 0 then Obs.incr ~n:removed m_mvcc_versions_gcd;
    with_mu t.mu (fun () ->
        let prune tbl =
          let dead =
            Hashtbl.fold
              (fun k stamp acc -> if stamp <= s_min then k :: acc else acc)
              tbl []
          in
          List.iter (Hashtbl.remove tbl) dead
        in
        prune t.committed_at;
        prune t.last_write);
    Obs.set m_mvcc_chain_entries (float_of_int (chain_entries t))
  end

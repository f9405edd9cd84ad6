(* MVCC snapshot reads beside Strict 2PL.

   Three layers of certification for the versioned-table / snapshot-
   isolation tentpole:

   - adversarial version-chain tests against the raw [Table] API
     (visibility closure, GC, chain accounting);
   - the headline lock-manager assertion: a snapshot transaction
     acquires *zero* read locks (asserted on the lock-manager's probe
     stream, with a 2PL control transaction in the same schedule);
   - a differential QCheck battery: the same randomized batch executed
     all-2PL, all-SI and mixed must certify under the level-aware
     checker and agree on committed effects and final table state
     (the workload is write-disjoint, so no SI anomaly can separate
     the levels).

   The [instances] group checks that storage modes belong to the
   catalog that owns the tables: a second manager, a recovery or an
   interleaved run of another instance leaves each one's mode and
   results as they are when it runs alone. *)

open Ent_storage
module Manager = Ent_core.Manager
module Scheduler = Ent_core.Scheduler
module Program = Ent_core.Program
module Engine = Ent_txn.Engine
module Lock = Ent_txn.Lock
module Certify = Ent_schedule.Certify
module Travel = Ent_workload.Travel
module Wgen = Ent_workload.Gen

(* A fresh single-column table with version chains on. *)
let int_table () =
  let t =
    Table.create ~name:"T" (Schema.make [ { Schema.name = "v"; ty = T_int } ])
  in
  Table.enable_versioning t;
  t

let read_live table id = List.assoc_opt id (Table.to_list table)

let check_tuple name expected actual =
  Alcotest.(check (option (list string)))
    name expected
    (Option.map (fun t -> List.map Value.to_string (Tuple.to_list t)) actual)

(* --- version-chain semantics on the raw table --- *)

let test_chain_visibility () =
  let t = int_table () in
  let id = Table.insert t [| Value.Int 1 |] in
  (* writer 0 is bootstrap: visible to every snapshot *)
  ignore (Table.update ~writer:5 t id [| Value.Int 2 |]);
  check_tuple "snapshot before writer 5 sees the bootstrap value"
    (Some [ "1" ])
    (Table.read_at t id ~visible:(fun w -> w = 0));
  check_tuple "snapshot including writer 5 sees the update" (Some [ "2" ])
    (Table.read_at t id ~visible:(fun _ -> true));
  check_tuple "live read sees the update" (Some [ "2" ]) (read_live t id);
  ignore (Table.delete ~writer:7 t id);
  check_tuple "snapshot before the delete still sees the row" (Some [ "2" ])
    (Table.read_at t id ~visible:(fun w -> w <> 7));
  Alcotest.(check bool)
    "snapshot after the delete sees nothing" true
    (Table.read_at t id ~visible:(fun _ -> true) = None);
  Alcotest.(check bool) "chain is non-empty" true (Table.chain_entries t > 0)

let test_uncommitted_insert_invisible () =
  let t = int_table () in
  let _stable = Table.insert t [| Value.Int 10 |] in
  let fresh = Table.insert ~writer:9 t [| Value.Int 99 |] in
  let seen visible =
    List.of_seq (Table.to_seq_at t ~visible)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check bool)
    "scan-at excludes the in-flight writer's insert" true
    (not (List.mem fresh (seen (fun w -> w <> 9))));
  Alcotest.(check bool)
    "scan-at includes it once the writer is visible" true
    (List.mem fresh (seen (fun _ -> true)))

let test_gc_drains_chains () =
  let t = int_table () in
  let id = Table.insert t [| Value.Int 1 |] in
  ignore (Table.update ~writer:3 t id [| Value.Int 2 |]);
  ignore (Table.update ~writer:4 t id [| Value.Int 3 |]);
  Alcotest.(check bool) "two chain entries live" true (Table.chain_entries t >= 2);
  (* GC below writer 4 keeps the newest reachable entry's history *)
  ignore (Table.gc_versions t ~obsolete:(fun w -> w <= 3));
  check_tuple "live state survives partial GC" (Some [ "3" ]) (read_live t id);
  ignore (Table.gc_versions t ~obsolete:(fun _ -> true));
  Alcotest.(check int) "full GC empties the chains" 0 (Table.chain_entries t);
  check_tuple "live state survives full GC" (Some [ "3" ]) (read_live t id)

(* --- indexed snapshot probes against the snapshot scan --- *)

(* Random versioned histories on a (k, v) table: inserts, updates that
   may move a row to another key, and deletes, by writers whose
   visibility the snapshot draws at random, with [gc_versions]
   interleaved and the indexes on [k] created at a random step. Every
   point and range probe must return exactly [List.filter] over
   [to_seq_at]: same ids, rows and order, and one row read charged per
   row returned, as the filter-scan path charges. Every history starts
   with a row whose key writer 1 changes and a row writer 2 deletes, so
   a snapshot that does not see those writers reads a key the index no
   longer holds or a deleted row; small key and writer ranges make more
   of both. *)
type probe_op =
  | P_insert of int * int
  | P_update of int * int * int
  | P_delete of int * int
  | P_gc of int

let probe_op_to_string = function
  | P_insert (w, k) -> Printf.sprintf "insert w%d k=%d" w k
  | P_update (w, row, k) -> Printf.sprintf "update w%d #%d k=%d" w row k
  | P_delete (w, row) -> Printf.sprintf "delete w%d #%d" w row
  | P_gc w -> Printf.sprintf "gc <=w%d" w

let prop_snapshot_probes_match_scan =
  let op =
    QCheck2.Gen.(
      let w = int_range 1 4 and k = int_range 0 3 and row = int_range 0 15 in
      frequency
        [ (4, map2 (fun w k -> P_insert (w, k)) w k);
          (3, map3 (fun w row k -> P_update (w, row, k)) w row k);
          (2, map2 (fun w row -> P_delete (w, row)) w row);
          (1, map (fun w -> P_gc w) (int_range 0 4)) ])
  in
  let bound =
    QCheck2.Gen.(
      oneof
        [ return Ordered_index.Unbounded;
          map (fun k -> Ordered_index.Inclusive (Value.Int k)) (int_range 0 4);
          map (fun k -> Ordered_index.Exclusive (Value.Int k)) (int_range 0 4) ])
  in
  let gen =
    QCheck2.Gen.(
      quad (list_size (int_range 0 40) op) (int_range 0 40)
        (array_size (return 5) bool)
        (list_size (int_range 1 6) (pair bound bound)))
  in
  let print_bound = function
    | Ordered_index.Unbounded -> "_"
    | Ordered_index.Inclusive v -> "[" ^ Value.to_string v
    | Ordered_index.Exclusive v -> "(" ^ Value.to_string v
  in
  let print =
    QCheck2.Print.(
      quad (list probe_op_to_string) int
        (fun a -> String.concat "" (Array.to_list (Array.map string_of_bool a)))
        (list (pair print_bound print_bound)))
  in
  QCheck2.Test.make ~count:300 ~print
    ~name:"indexed snapshot probes equal a filtered snapshot scan" gen
    (fun (ops, index_at, mask, ranges) ->
      let t =
        Table.create ~name:"P"
          (Schema.make
             [ { Schema.name = "k"; ty = T_int };
               { Schema.name = "v"; ty = T_int } ])
      in
      Table.enable_versioning t;
      let add_indexes () =
        Table.add_index t ~positions:[ 0 ];
        Table.add_ordered_index t ~position:0
      in
      let prefix =
        [ P_insert (0, 0); P_insert (0, 1); P_update (1, 0, 2); P_delete (2, 1) ]
      in
      List.iteri
        (fun step op ->
          if step = index_at then add_indexes ();
          match op with
          | P_insert (w, k) ->
            ignore (Table.insert ~writer:w t [| Value.Int k; Value.Int step |])
          | P_update (w, row, k) ->
            ignore
              (Table.update ~writer:w t row [| Value.Int k; Value.Int step |])
          | P_delete (w, row) -> ignore (Table.delete ~writer:w t row)
          | P_gc w -> ignore (Table.gc_versions t ~obsolete:(fun x -> x <= w)))
        (prefix @ ops);
      if index_at >= List.length prefix + List.length ops then add_indexes ();
      let visible w = mask.(w) in
      let count name =
        Option.value ~default:0 (Ent_obs.Obs.find_counter name)
      in
      let dump rows =
        List.map
          (fun (id, row) -> (id, List.map Value.to_string (Tuple.to_list row)))
          rows
      in
      let check what ~via probe keep =
        let expected =
          List.filter keep (List.of_seq (Table.to_seq_at t ~visible))
        in
        let before = count "storage.table.rows_read" and probes = count via in
        let got = List.of_seq (probe ()) in
        let charged = count "storage.table.rows_read" - before in
        if count via <> probes + 1 then
          QCheck2.Test.fail_reportf "%s: not served by the index" what;
        if dump got <> dump expected then
          QCheck2.Test.fail_reportf "%s: rows differ" what;
        if charged <> List.length expected then
          QCheck2.Test.fail_reportf "%s: charged %d rows read for %d rows" what
            charged (List.length expected)
      in
      let key (_, row) = Tuple.get row 0 in
      for k = 0 to 4 do
        check (Printf.sprintf "lookup k=%d" k) ~via:"storage.index.lookups"
          (fun () ->
            Table.lookup_seq_at t ~positions:[ 0 ] [ Value.Int k ] ~visible)
          (fun r -> Value.equal (key r) (Value.Int k))
      done;
      let above lo v =
        match lo with
        | Ordered_index.Unbounded -> true
        | Ordered_index.Inclusive b -> Value.compare v b >= 0
        | Ordered_index.Exclusive b -> Value.compare v b > 0
      in
      let below hi v =
        match hi with
        | Ordered_index.Unbounded -> true
        | Ordered_index.Inclusive b -> Value.compare v b <= 0
        | Ordered_index.Exclusive b -> Value.compare v b < 0
      in
      List.iter
        (fun (lo, hi) ->
          check "range" ~via:"storage.index.range_lookups"
            (fun () -> Table.range_lookup_seq_at t ~position:0 ~lo ~hi ~visible)
            (fun r -> above lo (key r) && below hi (key r)))
        ranges;
      true)

(* --- the headline acceptance assertion: snapshot reads take no locks --- *)

(* One snapshot transaction and one 2PL control transaction run the
   same read-then-write program. The lock-manager probe stream must
   show: zero S/IS requests from the snapshot transaction (its writes
   still take IX/X), and at least one shared request from the control
   (same program, classical locking) — proving the stream would have
   caught a leaked read lock. *)
let test_snapshot_zero_read_locks () =
  let m = Gen.travel_manager () in
  let requests : (int * Lock.mode) list ref = ref [] in
  let si_txns = ref [] in
  Manager.observe m
    ~on_event:(function
      | Engine.Ev_begin (txn, Engine.Snapshot) -> si_txns := txn :: !si_txns
      | _ -> ())
    ~on_entangle:(fun ~event:_ _ -> ());
  let body =
    "BEGIN TRANSACTION;\n\
     SELECT fno FROM Flights;\n\
     INSERT INTO Reserve VALUES ('solo', 'flight', 122);\n\
     COMMIT;"
  in
  let locks = Engine.locks (Manager.engine m) in
  Lock.set_probe locks
    (Some (fun ~txn _resource mode -> requests := (txn, mode) :: !requests));
  Fun.protect ~finally:(fun () -> Lock.set_probe locks None) @@ fun () ->
  let si =
    Manager.submit m
      (Program.of_string ~label:"si" ~isolation:Engine.Snapshot body)
  in
  let control = Manager.submit m (Program.of_string ~label:"2pl" body) in
  Manager.drain m;
  Gen.check_outcome m "snapshot transaction commits" "committed" si;
  Gen.check_outcome m "control transaction commits" "committed" control;
  Alcotest.(check int) "exactly one snapshot txn began" 1 (List.length !si_txns);
  let of_si (txn, _) = List.mem txn !si_txns in
  let is_read (_, mode) = mode = Lock.S || mode = Lock.IS in
  let si_reqs, other_reqs = List.partition of_si !requests in
  Alcotest.(check int)
    "snapshot transaction acquired zero read locks" 0
    (List.length (List.filter is_read si_reqs));
  Alcotest.(check bool)
    "snapshot transaction still locks its writes" true
    (List.exists (fun (_, m) -> m = Lock.IX || m = Lock.X) si_reqs);
  Alcotest.(check bool)
    "the 2PL control did take read locks (the probe works)" true
    (List.exists is_read other_reqs)

(* --- differential battery: 2pl vs si vs mixed --- *)

let retag level programs =
  let snap (p : Program.t) = { p with isolation = Engine.Snapshot } in
  match level with
  | `All_2pl -> programs
  | `All_si -> List.map snap programs
  | `Mixed -> List.mapi (fun i p -> if i land 1 = 1 then snap p else p) programs

(* The committed Reserve contents, sorted. *)
let reserve_of m =
  List.sort compare
    (List.map
       (fun row -> Array.to_list (Array.map Value.to_string row))
       (Manager.query m "SELECT uid, fid FROM Reserve"))

(* A small travel world with the online certifier attached. *)
let certified_world ~seed config =
  let world = Travel.build ~seed ~users:30 ~cities:5 ~config () in
  let certifier = Certify.create () in
  Manager.observe world.Travel.manager
    ~on_event:(Certify.on_engine_event certifier)
    ~on_entangle:(Certify.on_entangle certifier);
  (world, certifier)

(* Run one randomized batch (entangled pairs + plain social bookings)
   under [level]: returns per-label outcomes, the sorted committed
   Reserve contents, the certifier's verdict, and the version-chain
   residue after the drain. *)
let run_batch ~world_seed ~pairs ~plain level =
  let config =
    { Scheduler.default_config with trigger = Scheduler.Every_arrivals 4 }
  in
  let world, certifier = certified_world ~seed:world_seed config in
  let programs =
    Wgen.batch world ~transactional:true Wgen.Entangled ~n:(2 * pairs)
      ~tag_base:0
    @ Wgen.batch world ~transactional:true Wgen.Social ~n:plain ~tag_base:500
  in
  let programs = retag level programs in
  let ids =
    List.map
      (fun (p : Program.t) ->
        (p.label, Manager.submit world.Travel.manager p))
      programs
  in
  Manager.drain world.Travel.manager;
  let outcomes =
    List.map
      (fun (label, id) ->
        (label, Gen.outcome_name (Manager.outcome world.Travel.manager id)))
      ids
  in
  let reserve = reserve_of world.Travel.manager in
  let chains = Engine.chain_entries (Manager.engine world.Travel.manager) in
  (outcomes, reserve, Certify.violations certifier, chains)

let prop_differential_isolation =
  QCheck2.Test.make ~count:20
    ~name:"one batch under 2pl, si and mixed: certifies, agrees, GCs"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 0 5) (int_range 0 999))
    (fun (pairs, plain, world_seed) ->
      let runs =
        List.map
          (fun (name, level) ->
            (name, run_batch ~world_seed ~pairs ~plain level))
          [ ("2pl", `All_2pl); ("si", `All_si); ("mixed", `Mixed) ]
      in
      List.iter
        (fun (name, (outcomes, _, violations, chains)) ->
          if violations <> [] then
            QCheck2.Test.fail_reportf "%s run fails certification: [%s] %s"
              name
              (List.hd violations).Certify.code
              (List.hd violations).Certify.detail;
          if chains <> 0 then
            QCheck2.Test.fail_reportf
              "%s run leaks %d version-chain entries after drain" name chains;
          List.iter
            (fun (label, outcome) ->
              if outcome <> "committed" then
                QCheck2.Test.fail_reportf "%s run: %s %s" name label outcome)
            outcomes)
        runs;
      (* The workload writes disjoint fresh rows, so no SI anomaly is
         possible and every level must produce the same database. *)
      match runs with
      | (_, (o0, r0, _, _)) :: rest ->
        List.iter
          (fun (name, (o, r, _, _)) ->
            if o <> o0 then
              QCheck2.Test.fail_reportf "%s outcomes differ from 2pl" name;
            if r <> r0 then
              QCheck2.Test.fail_reportf
                "%s final Reserve contents differ from 2pl" name)
          rest;
        true
      | [] -> true)

(* --- storage modes belong to the instance that owns the tables --- *)

(* Versioned mode is switched on per catalog. Creating a second manager
   after the first one's Snapshot submit must leave the first one's
   version chains on, and the second one's off. *)
let test_second_manager_keeps_versioning () =
  let a = Gen.travel_manager () in
  let si =
    Manager.submit a
      (Program.of_string ~label:"si" ~isolation:Engine.Snapshot
         "BEGIN TRANSACTION;\nSELECT fno FROM Flights;\nCOMMIT;")
  in
  Manager.drain a;
  Gen.check_outcome a "snapshot transaction commits" "committed" si;
  let b = Gen.travel_manager () in
  Alcotest.(check bool)
    "A is versioned" true
    (Catalog.versioned (Manager.catalog a));
  Alcotest.(check bool)
    "B is not versioned" false
    (Catalog.versioned (Manager.catalog b));
  let flights = Catalog.find_exn (Manager.catalog a) "Flights" in
  let before = Table.chain_entries flights in
  let row = Option.get (Table.get flights 0) in
  ignore (Table.update ~writer:999 flights 0 row);
  Alcotest.(check int)
    "A's write still records a chain entry" (before + 1)
    (Table.chain_entries flights)

(* Version chains are volatile: a catalog rebuilt from the WAL after an
   SI run starts unversioned with empty chains, a 2PL write keeps it
   so, and the next Snapshot submit turns it back on. *)
let test_recovery_starts_unversioned () =
  let booking name =
    Printf.sprintf
      "BEGIN TRANSACTION;\nINSERT INTO Reserve VALUES ('%s', 'flight', 122);\n\
       COMMIT;"
      name
  in
  let m = Gen.travel_manager () in
  let si =
    Manager.submit m
      (Program.of_string ~label:"si" ~isolation:Engine.Snapshot (booking "si"))
  in
  Manager.drain m;
  Gen.check_outcome m "snapshot booking commits" "committed" si;
  let r = Manager.crash_and_recover m in
  let versioned () = Catalog.versioned (Manager.catalog r) in
  Alcotest.(check bool) "recovered catalog is unversioned" false (versioned ());
  Catalog.iter
    (fun name table ->
      Alcotest.(check int)
        (name ^ " has no chain") 0 (Table.chain_entries table))
    (Manager.catalog r);
  let plain = Manager.submit_string r ~label:"2pl" (booking "2pl") in
  Manager.drain r;
  Gen.check_outcome r "2PL booking commits" "committed" plain;
  Alcotest.(check bool)
    "a 2PL submit leaves it unversioned" false (versioned ());
  Alcotest.(check int)
    "a 2PL write records no chain entry" 0
    (Engine.chain_entries (Manager.engine r));
  ignore
    (Manager.submit r
       (Program.of_string ~label:"si-2" ~isolation:Engine.Snapshot
          (booking "si-2")));
  Alcotest.(check bool) "a Snapshot submit turns it on" true (versioned ())

(* A steppable instance: one travel world under its own scheduler, the
   programs it has yet to submit, and its certifier. *)
type instance = {
  manager : Manager.t;
  certifier : Certify.t;
  mutable todo : Program.t list;
  mutable submitted : (string * int) list;
}

let instance ?runner level =
  let config = { Scheduler.default_config with trigger = Manual; runner } in
  let world, certifier = certified_world ~seed:11 config in
  let writers =
    retag level
      (Wgen.batch world ~transactional:true Wgen.Entangled ~n:8 ~tag_base:0
      @ Wgen.batch world ~transactional:true Wgen.Social ~n:8 ~tag_base:500)
  in
  let reader k =
    Program.of_string
      ~label:(Printf.sprintf "reader-%d" k)
      ~isolation:
        (if level = `All_2pl then Engine.Serializable_2pl else Engine.Snapshot)
      (Printf.sprintf
         "BEGIN TRANSACTION;\nSELECT COUNT(*) AS @n FROM Reserve;\n\
          INSERT INTO Reserve VALUES (%d, @n);\nCOMMIT;"
         (-1 - k))
  in
  (* a reader after every third writer records the Reserve count its
     snapshot (or its S lock) saw, so visibility shows in the results *)
  let programs =
    List.concat
      (List.mapi
         (fun k p -> if k mod 3 = 2 then [ p; reader k ] else [ p ])
         writers)
  in
  { manager = world.Travel.manager; certifier; todo = programs;
    submitted = [] }

(* Submit the next block of four programs without running them. *)
let submit_block i =
  let rec go n =
    match i.todo with
    | p :: rest when n > 0 ->
      i.todo <- rest;
      i.submitted <-
        (p.Program.label, Manager.submit i.manager p) :: i.submitted;
      go (n - 1)
    | _ -> ()
  in
  go 4

let run i = Manager.run_once i.manager

(* Submit the rest and drain; then the outcomes, final Reserve
   contents, simulated time and certifier verdict. *)
let finish i =
  while i.todo <> [] do
    submit_block i;
    run i
  done;
  Manager.drain i.manager;
  ( List.rev_map
      (fun (label, id) ->
        (label, Gen.outcome_name (Manager.outcome i.manager id)))
      i.submitted,
    reserve_of i.manager,
    Manager.now i.manager,
    List.map
      (fun (v : Certify.violation) -> v.code)
      (Certify.violations i.certifier) )

(* Each instance's results when stepped in alternation with another in
   one process must equal its solo run. The second instance is created
   between the first one's first submits and its first run, so a mode
   the first one set up at a Snapshot submit (or at creation) is live
   when the second appears. *)
let check_alternation name make_a make_b =
  let solo_a = finish (make_a ()) and solo_b = finish (make_b ()) in
  let a = make_a () in
  submit_block a;
  let b = make_b () in
  let rec alternate () =
    submit_block b;
    run a;
    run b;
    if a.todo <> [] || b.todo <> [] then begin
      submit_block a;
      alternate ()
    end
  in
  alternate ();
  let same what solo (outcomes, reserve, now, verdict) =
    let outcomes0, reserve0, now0, verdict0 = solo in
    Alcotest.(check (list (pair string string)))
      (what ^ " outcomes") outcomes0 outcomes;
    Alcotest.(check (list (list string))) (what ^ " Reserve") reserve0 reserve;
    Alcotest.(check (float 0.0)) (what ^ " simulated time") now0 now;
    Alcotest.(check (list string))
      (what ^ " certifier verdict") verdict0 verdict
  in
  let ra = finish a and rb = finish b in
  same (name ^ ": first") solo_a ra;
  same (name ^ ": second") solo_b rb

let test_alternating_isolation () =
  check_alternation "si beside 2pl"
    (fun () -> instance `All_si)
    (fun () -> instance `All_2pl)

let test_alternating_runners () =
  let pool = Ent_par.Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Ent_par.Pool.shutdown pool) @@ fun () ->
  check_alternation "pool beside deterministic"
    (fun () -> instance ~runner:pool `Mixed)
    (fun () -> instance `Mixed)

let () =
  Alcotest.run "mvcc"
    [ ( "version-chains",
        [ Alcotest.test_case "visibility closure" `Quick test_chain_visibility;
          Alcotest.test_case "uncommitted insert invisible" `Quick
            test_uncommitted_insert_invisible;
          Alcotest.test_case "gc drains chains" `Quick test_gc_drains_chains ] );
      ( "locks",
        [ Alcotest.test_case "snapshot reads take zero locks" `Quick
            test_snapshot_zero_read_locks ] );
      ( "instances",
        [ Alcotest.test_case "second manager keeps versioning" `Quick
            test_second_manager_keeps_versioning;
          Alcotest.test_case "recovery starts unversioned" `Quick
            test_recovery_starts_unversioned;
          Alcotest.test_case "2pl and si alternate" `Quick
            test_alternating_isolation;
          Alcotest.test_case "pool and deterministic alternate" `Quick
            test_alternating_runners ] );
      ( "differential",
        List.map Gen.to_alcotest
          [ prop_differential_isolation; prop_snapshot_probes_match_scan ] ) ]

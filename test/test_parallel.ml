(* Multicore execution (DESIGN.md §9): shard boundaries of the sharded
   lock manager, agreement of the static (entlint) lock order with what
   a transaction acquires through the sharded manager, the coordination
   evaluator on random query sets, and equivalence
   of parallel (--parallel N) and deterministic runs over the same
   workload, partnerless stragglers included, and the event log merged
   from the per-domain buffers. *)

(* alias the shared test module before [open Ent_workload] shadows [Gen] *)
module Tgen = Gen
open Ent_core
open Ent_workload
module Lock = Ent_txn.Lock
module Pool = Ent_par.Pool
module Certify = Ent_schedule.Certify
module Event = Ent_obs.Event
module Obs = Ent_obs.Obs
module Schema = Ent_obs.Schema
module Trace = Ent_obs.Trace

(* --- shard boundaries --- *)

(* A row of [table] on a different shard of [lm] than [r], and one on
   the same shard; both exist because the shard map is a hash of the
   whole key, and we probe as many keys as shards. *)
let row_on lm ~table ~same r =
  let target = Lock.shard_of lm r in
  let rec go i =
    if i > 100 * Lock.shard_count then
      Alcotest.failf "no row of %s with same-shard=%b found" table same
    else if (Lock.shard_of lm (Lock.Row (table, i)) = target) = same
            && Lock.Row (table, i) <> r
    then Lock.Row (table, i)
    else go (i + 1)
  in
  go 0

let test_shard_map () =
  Alcotest.(check bool) "at least two shards" true (Lock.shard_count > 1);
  let lm = Lock.create () in
  List.iter
    (fun r ->
      let s = Lock.shard_of lm r in
      Alcotest.(check bool) "in range" true (s >= 0 && s < Lock.shard_count);
      Alcotest.(check int) "pure" s (Lock.shard_of lm r))
    [ Lock.Table "Flights"; Lock.Row ("Flights", 3); Lock.Row ("Reserve", 17) ]

let test_cross_shard_no_contention () =
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  let b = row_on lm ~table:"Reserve" ~same:false a in
  Alcotest.(check bool) "X on a granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "X on b granted" true
    (Lock.request lm ~txn:2 b X = Lock.Granted);
  Alcotest.(check (list int)) "txn 1 blocked by nobody" []
    (Lock.blockers lm ~txn:1);
  Alcotest.(check (list int)) "txn 2 blocked by nobody" []
    (Lock.blockers lm ~txn:2);
  Alcotest.(check bool) "txn 2 not waiting" false (Lock.is_waiting lm ~txn:2);
  Alcotest.(check int) "both entries live" 2 (List.length (Lock.dump lm))

let test_same_shard_disjoint_rows () =
  (* same shard means shared internal synchronization, never a false
     lock conflict *)
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  let b = row_on lm ~table:"Reserve" ~same:true a in
  Alcotest.(check bool) "X on a granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "X on b granted" true
    (Lock.request lm ~txn:2 b X = Lock.Granted);
  Alcotest.(check (list int)) "no blockers" [] (Lock.blockers lm ~txn:2)

let test_same_resource_still_conflicts () =
  let lm = Lock.create () in
  let a = Lock.Row ("Reserve", 0) in
  Alcotest.(check bool) "first X granted" true
    (Lock.request lm ~txn:1 a X = Lock.Granted);
  Alcotest.(check bool) "second X waits" true
    (Lock.request lm ~txn:2 a X = Lock.Waiting);
  Alcotest.(check (list int)) "blocked by txn 1" [ 1 ]
    (Lock.blockers lm ~txn:2);
  let woken = Lock.release_all lm ~txn:1 in
  Alcotest.(check (list int)) "txn 2 woken" [ 2 ] woken

(* Four domains of a pool lock the same fresh table names at once:
   they meet at a barrier, then each walks all the names from its own
   starting point, so two domains often add different names to the
   intern table at the same moment. Every name gets one key whichever
   domain asked (and keeps it), distinct names get distinct keys, and
   each domain's [held] answers, read back on that domain and again
   after the region, agree that all four hold every table. *)
let test_concurrent_interning () =
  let domains = 4 and n = 1000 in
  let names = Array.init n (Printf.sprintf "fresh%d") in
  let lm = Lock.create () in
  let keys = Array.make_matrix domains n 0 in
  let held_ok = Array.make domains false in
  let arrived = Atomic.make 0 in
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      Pool.run_indexed pool domains (fun d ->
          Atomic.incr arrived;
          while Atomic.get arrived < domains do
            Domain.cpu_relax ()
          done;
          let txn = d + 1 in
          for step = 0 to n - 1 do
            let i = (step + (d * n / domains)) mod n in
            let r = Lock.Table names.(i) in
            keys.(d).(i) <- Lock.key lm r;
            if Lock.request lm ~txn r Lock.S <> Lock.Granted then
              failwith "S on a fresh table not granted"
          done;
          held_ok.(d) <-
            Array.for_all
              (fun name -> Lock.held lm ~txn (Lock.Table name) = Some Lock.S)
              names));
  Array.iteri
    (fun d ok -> Alcotest.(check bool) (Printf.sprintf "domain %d held all" d) true ok)
    held_ok;
  for i = 0 to n - 1 do
    for d = 1 to domains - 1 do
      if keys.(d).(i) <> keys.(0).(i) then
        Alcotest.failf "%s: domain %d got another key than domain 0" names.(i) d
    done;
    Alcotest.(check int) (names.(i) ^ " key is stable") keys.(0).(i)
      (Lock.key lm (Lock.Table names.(i)));
    Alcotest.(check (list int))
      (names.(i) ^ " held by every domain's txn")
      [ 1; 2; 3; 4 ]
      (List.map fst (Lock.holders lm (Lock.Table names.(i))))
  done;
  let distinct = List.sort_uniq Int.compare (Array.to_list keys.(0)) in
  Alcotest.(check int) "one key per name" n (List.length distinct)

(* --- static lock order vs the sharded manager --- *)

(* Replay entlint's statically-computed lock sequence (Summary, the
   same order the conflict matrix's lock-order edges are built from)
   through a sharded lock manager: every acquisition must be granted
   immediately and in the static order, even across shard boundaries,
   and every matrix lock-order edge must agree with the replayed
   first-acquisition order. *)
let test_static_lock_order_across_shards () =
  let src = Tgen.travel_program "Mickey" "Minnie" in
  let program = Program.make ~label:"travel" (Ent_sql.Parser.parse_program src) in
  let summary = Ent_analysis.Summary.of_program program in
  let seq = Ent_analysis.Summary.lock_sequence summary in
  Alcotest.(check bool) "sequence nonempty" true (seq <> []);
  let tables = List.map (fun (t, _, _, _) -> t) seq in
  let lm = Lock.create () in
  let crosses_shards =
    List.exists2
      (fun u v ->
        Lock.shard_of lm (Lock.Table u) <> Lock.shard_of lm (Lock.Table v))
      (List.filteri (fun i _ -> i < List.length tables - 1) tables)
      (List.tl tables)
  in
  Alcotest.(check bool) "sequence crosses a shard boundary" true crosses_shards;
  let acquired = ref [] in
  List.iter
    (fun (table, mode, _, _) ->
      let m = match mode with `S -> Lock.S | `X -> Lock.X in
      Alcotest.(check bool)
        (Printf.sprintf "%s granted in static order" table)
        true
        (Lock.request lm ~txn:1 (Lock.Table table) m = Lock.Granted);
      if not (List.mem table !acquired) then acquired := !acquired @ [ table ];
      (* Strict 2PL: everything acquired earlier is still held *)
      List.iter
        (fun held ->
          Alcotest.(check bool)
            (Printf.sprintf "%s still held" held)
            true
            (Lock.held lm ~txn:1 (Lock.Table held) <> None))
        !acquired)
    seq;
  let matrix =
    Ent_analysis.Matrix.analyze [ { source = "travel"; program } ]
  in
  let index t =
    let rec go i = function
      | [] -> Alcotest.failf "edge table %s not in lock sequence" t
      | u :: _ when u = t -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 !acquired
  in
  Alcotest.(check bool) "matrix has lock-order edges" true
    (matrix.Ent_analysis.Matrix.edges <> []);
  List.iter
    (fun (e : Ent_analysis.Matrix.edge) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %s -> %s respects acquisition order"
           e.eu e.ev)
        true
        (index e.eu < index e.ev))
    matrix.Ent_analysis.Matrix.edges

(* --- coordination: the one evaluator on random query sets --- *)

module Coordinate = Ent_entangle.Coordinate
module Ir = Ent_entangle.Ir
module Ground = Ent_entangle.Ground
module Value = Ent_storage.Value

(* Random entangled-query sets built directly at the IR level: matched
   pairs (head A(k) needing B(k), and its mirror), self-sufficient
   solos (no postcondition), and lonely queries whose postcondition
   relation never appears as any head (structurally No_partner). Even
   keys add a decoy grounding first, so the search must backtrack off
   a partnerless grounding before finding the real match. *)
type coord_spec =
  | Pair of int * int * int  (* head rel, partner rel, key *)
  | Solo of int * int
  | Lonely of int * int * int

let rel i = Printf.sprintf "R%d" i
let lonely_rel i = Printf.sprintf "L%d" i
let atom r k = { Ir.rel = r; args = [ Ir.Const (Value.Int k) ] }
let gatom r k = (r, [ Value.Int k ])

let query ~head ~post =
  { Ir.head; post; body = Ent_sql.Ast.True; binds = []; choose = 1 }

(* Entries [(qid, query, groundings)], each tagged with the kind of
   spec it came from. *)
let build_entries specs =
  let next = ref 0 in
  let fresh () =
    let q = !next in
    incr next;
    q
  in
  List.concat_map
    (fun spec ->
      match spec with
      | Pair (a, b, k) ->
        let qa = fresh () and qb = fresh () in
        let ga =
          { Ground.g_head = [ gatom (rel a) k ]; g_post = [ gatom (rel b) k ] }
        in
        let gb =
          { Ground.g_head = [ gatom (rel b) k ]; g_post = [ gatom (rel a) k ] }
        in
        let decoy =
          {
            Ground.g_head = [ gatom (rel a) (k + 1000) ];
            g_post = [ gatom (rel b) (k + 1000) ];
          }
        in
        let gsa = if k mod 2 = 0 then [ decoy; ga ] else [ ga ] in
        [
          ((qa, query ~head:[ atom (rel a) k ] ~post:[ atom (rel b) k ], gsa), `Pair);
          ((qb, query ~head:[ atom (rel b) k ] ~post:[ atom (rel a) k ], [ gb ]), `Pair);
        ]
      | Solo (a, k) ->
        let q = fresh () in
        [
          ( ( q,
              query ~head:[ atom (rel a) k ] ~post:[],
              [ { Ground.g_head = [ gatom (rel a) k ]; g_post = [] } ] ),
            `Solo );
        ]
      | Lonely (a, b, k) ->
        let q = fresh () in
        [
          ( ( q,
              query ~head:[ atom (rel a) k ] ~post:[ atom (lonely_rel b) k ],
              [
                {
                  Ground.g_head = [ gatom (rel a) k ];
                  g_post = [ gatom (lonely_rel b) k ];
                };
              ] ),
            `Lonely );
        ])
    specs

let coord_spec_gen =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun a b k -> Pair (a, b, k))
          (int_range 0 5) (int_range 0 5) (int_range 0 9);
        map2 (fun a k -> Solo (a, k)) (int_range 0 5) (int_range 0 9);
        map3
          (fun a b k -> Lonely (a, b, k))
          (int_range 0 5) (int_range 0 3) (int_range 0 9);
      ])

let print_coord_specs specs =
  String.concat ";"
    (List.map
       (function
         | Pair (a, b, k) -> Printf.sprintf "P(%d,%d,%d)" a b k
         | Solo (a, k) -> Printf.sprintf "S(%d,%d)" a k
         | Lonely (a, b, k) -> Printf.sprintf "L(%d,%d,%d)" a b k)
       specs)

(* [Coordinate.evaluate] answers one outcome per query in input order:
   lonely queries are No_partner, solos are answered, and a pair member
   is answered or Empty (the greedy search may commit an earlier query
   to a decoy its partner needed). Every answer is one of the query's
   own groundings, and the answered groundings form a coordinating set:
   their heads cover all their postconditions (Appendix A). A second
   evaluation of the same input gives the same outcomes. *)
let prop_evaluate_coordinates =
  QCheck2.Test.make ~count:60
    ~name:"evaluate: lonely No_partner, answers coordinate"
    ~print:print_coord_specs
    QCheck2.Gen.(list_size (int_range 1 24) coord_spec_gen)
    (fun specs ->
      let tagged = build_entries specs in
      let entries = List.map fst tagged in
      let results = Coordinate.evaluate entries in
      if List.map fst results <> List.map (fun (q, _, _) -> q) entries then
        QCheck2.Test.fail_report "outcomes not one per query in input order";
      let heads = Hashtbl.create 64 in
      let answered =
        List.concat
          (List.map2
             (fun ((q, _, gs), kind) (_, outcome) ->
               match (kind, outcome) with
               | `Lonely, Coordinate.No_partner | `Pair, Coordinate.Empty -> []
               | (`Solo | `Pair), Coordinate.Answered g when List.memq g gs ->
                 List.iter (fun a -> Hashtbl.replace heads a ()) g.Ground.g_head;
                 [ g ]
               | _ ->
                 QCheck2.Test.fail_report
                   (Printf.sprintf "unexpected outcome for qid %d" q))
             tagged results)
      in
      List.iter
        (fun (g : Ground.grounding) ->
          if not (List.for_all (Hashtbl.mem heads) g.g_post) then
            QCheck2.Test.fail_report "answered postcondition not covered")
        answered;
      if Coordinate.evaluate entries <> results then
        QCheck2.Test.fail_report "second evaluation differs";
      true)

(* --- parallel/deterministic equivalence --- *)

let final_tables (world : Travel.t) =
  let catalog = Manager.catalog world.manager in
  List.map
    (fun name ->
      let rows =
        match Ent_storage.Catalog.find catalog name with
        | None -> []
        | Some t ->
          List.map
            (fun (_, row) ->
              List.map Ent_storage.Value.to_string
                (Ent_storage.Tuple.to_list row))
            (Ent_storage.Table.to_list t)
      in
      (name, List.sort compare rows))
    (List.sort compare (Ent_storage.Catalog.table_names catalog))

let run_case ~domains ~kind ~n =
  let runner = if domains > 1 then Some (Pool.create ~domains) else None in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown runner)
  @@ fun () ->
  let config =
    {
      Scheduler.default_config with
      connections = 20;
      trigger = Scheduler.Every_arrivals 25;
      runner;
    }
  in
  let world = Travel.build ~users:120 ~cities:6 ~config () in
  let c = Certify.create () in
  Manager.observe world.manager ~on_event:(Certify.on_engine_event c)
    ~on_entangle:(Certify.on_entangle c);
  (* Partnerless stragglers go first: every run answers them No_partner
     and repools them, on the pool path as on the deterministic one. *)
  List.iter
    (fun p -> ignore (Manager.submit world.manager p))
    (Gen.lonely world ~n:3 ~tag_base:1_000_000);
  let programs = Gen.batch world ~transactional:true kind ~n ~tag_base:0 in
  let ids = List.map (Manager.submit world.manager) programs in
  Manager.drain world.manager;
  let committed =
    List.filter
      (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
      ids
  in
  ( Certify.ok c,
    List.sort compare committed,
    final_tables world,
    Manager.now world.manager )

let prop_parallel_matches_deterministic =
  let kinds = [ Gen.No_social; Gen.Social; Gen.Entangled ] in
  let kind_name = function
    | Gen.No_social -> "nosocial"
    | Gen.Social -> "social"
    | Gen.Entangled -> "entangled"
  in
  let gen =
    QCheck2.Gen.(triple (int_range 2 4) (int_range 20 60) (oneofl kinds))
  in
  QCheck2.Test.make ~count:6
    ~name:"parallel run certifies and matches deterministic effects"
    ~print:(fun (d, n, k) -> Printf.sprintf "domains=%d n=%d kind=%s" d n (kind_name k))
    gen
    (fun (domains, n, kind) ->
      let det_ok, det_committed, det_tables, det_now =
        run_case ~domains:1 ~kind ~n
      in
      let par_ok, par_committed, par_tables, par_now =
        run_case ~domains ~kind ~n
      in
      if not det_ok then QCheck2.Test.fail_report "deterministic run failed certification";
      if not par_ok then QCheck2.Test.fail_report "parallel run failed certification";
      if det_committed <> par_committed then
        QCheck2.Test.fail_report "committed-transaction sets differ";
      if det_tables <> par_tables then
        QCheck2.Test.fail_report "final table states differ";
      if det_now <> par_now then
        QCheck2.Test.fail_report
          (Printf.sprintf "simulated time differs: %g vs %g" det_now par_now);
      true)

(* --- the event log under the pool --- *)

(* [run_case]'s workload on two domains with the event log on, in a
   ring it cannot overflow: the log merged from the per-domain buffers
   is dense, every task's timeline is legal, it agrees with the engine's
   commit counter, and it exports a valid trace. *)
let test_parallel_event_log () =
  Event.set_capacity (1 lsl 20);
  Obs.reset ();
  Event.set_logging true;
  Fun.protect
    ~finally:(fun () ->
      Event.set_logging false;
      Event.set_capacity 65536)
  @@ fun () ->
  let ok, committed, _, _ = run_case ~domains:2 ~kind:Gen.Entangled ~n:40 in
  Alcotest.(check bool) "certified" true ok;
  Alcotest.(check bool) "some commit" true (committed <> []);
  let evs = Event.events () in
  Alcotest.(check int) "nothing dropped" 0 (Event.dropped ());
  List.iteri
    (fun i (e : Event.t) ->
      if e.seq <> i then Alcotest.failf "seq %d at position %d" e.seq i)
    evs;
  let timelines = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      if e.task >= 0 then
        Hashtbl.replace timelines e.task
          (e :: Option.value ~default:[] (Hashtbl.find_opt timelines e.task)))
    evs;
  Hashtbl.iter
    (fun task newest_first ->
      let tl = List.rev newest_first in
      let kind_at (e : Event.t) = Event.kind_name e.kind in
      if kind_at (List.hd tl) <> "pool_enter" then
        Alcotest.failf "task %d starts with %s" task (kind_at (List.hd tl));
      (* finalized, or left dormant: the partnerless stragglers *)
      (match (List.hd newest_first).kind with
      | Event.Finalize { outcome } ->
        if List.mem task committed && outcome <> "committed" then
          Alcotest.failf "committed task %d finalized %s" task outcome
      | Event.Pool_enter when not (List.mem task committed) -> ()
      | _ ->
        Alcotest.failf "task %d ends with %s" task
          (kind_at (List.hd newest_first)));
      let begun = Hashtbl.create 4 in
      List.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Begin -> Hashtbl.replace begun e.txn ()
          | Event.Commit | Event.Abort _ ->
            if not (Hashtbl.mem begun e.txn) then
              Alcotest.failf "task %d: txn %d ends before it begins" task e.txn
          | _ -> ())
        tl)
    timelines;
  let commits =
    List.length
      (List.filter (fun (e : Event.t) -> e.kind = Event.Commit) evs)
  in
  Alcotest.(check (option int)) "one Commit per engine commit" (Some commits)
    (Obs.find_counter "txn.engine.commits");
  match Schema.validate_trace (Trace.to_json evs) with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "invalid trace: %s" (String.concat "; " errs)

let () =
  Alcotest.run "parallel"
    [
      ( "shards",
        [
          Alcotest.test_case "shard map" `Quick test_shard_map;
          Alcotest.test_case "cross-shard no contention" `Quick
            test_cross_shard_no_contention;
          Alcotest.test_case "same-shard disjoint rows" `Quick
            test_same_shard_disjoint_rows;
          Alcotest.test_case "same resource conflicts" `Quick
            test_same_resource_still_conflicts;
          Alcotest.test_case "static lock order across shards" `Quick
            test_static_lock_order_across_shards;
          Alcotest.test_case "concurrent interning on 4 domains" `Quick
            test_concurrent_interning;
        ] );
      ("coordination", [ Tgen.to_alcotest prop_evaluate_coordinates ]);
      ( "equivalence",
        [ Tgen.to_alcotest prop_parallel_matches_deterministic ] );
      ( "event log",
        [ Alcotest.test_case "merged log under the pool" `Quick
            test_parallel_event_log ] );
    ]

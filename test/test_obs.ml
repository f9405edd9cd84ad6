(* Tests for the observability layer (lib/obs): histogram quantiles
   against a sorted-array oracle, snapshot JSON round-trips, the
   bench-document schema validator, and an integration
   check that one entangled workload leaves non-zero metrics in every
   layer of the engine. *)

open Ent_obs
open Ent_storage
open Ent_core

(* --- histogram quantiles vs a sorted-array oracle --- *)

let oracle_quantile sorted q =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) idx))

let prop_hist_quantile =
  QCheck2.Test.make ~name:"histogram quantiles within relative error"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 300) (float_range 1e-3 1e6))
    (fun values ->
      let h = Hist.create () in
      List.iter (Hist.observe h) values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let est = Hist.quantile h q in
          let exact = oracle_quantile sorted q in
          (* one bucket of slack on top of the advertised error *)
          Float.abs (est -. exact) <= (3. *. Hist.default_alpha *. exact) +. 1e-9)
        [ 0.0; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let test_hist_edge_cases () =
  let h = Hist.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0.0 (Hist.quantile h 0.5);
  Hist.observe h 0.0;
  Hist.observe h (-3.0);
  Hist.observe h Float.nan;
  Alcotest.(check int) "nan ignored" 2 (Hist.count h);
  Alcotest.(check (float 0.)) "non-positive bucket" 0.0 (Hist.quantile h 0.99);
  Hist.reset h;
  Alcotest.(check int) "reset clears" 0 (Hist.count h)

(* --- snapshot round-trip through the JSON encoder --- *)

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing member %S" name)

let test_snapshot_roundtrip () =
  Obs.reset ();
  let c = Obs.counter "test.roundtrip.counter" in
  let g = Obs.gauge "test.roundtrip.gauge" in
  let h = Obs.histogram "test.roundtrip.hist" in
  Obs.incr ~n:41 c;
  Obs.incr c;
  Obs.set g 2.5;
  List.iter (Obs.observe h) [ 1.0; 2.0; 3.0 ];
  let parsed = Json.of_string (Obs.snapshot ()) in
  let counters = member_exn "counters" parsed in
  let gauges = member_exn "gauges" parsed in
  let hists = member_exn "histograms" parsed in
  Alcotest.(check (option int)) "counter survives" (Some 42)
    (Option.bind (Json.member "test.roundtrip.counter" counters)
       Json.to_int_opt);
  Alcotest.(check (option (float 0.))) "gauge survives" (Some 2.5)
    (Option.bind (Json.member "test.roundtrip.gauge" gauges) Json.to_float_opt);
  let summary = member_exn "test.roundtrip.hist" hists in
  Alcotest.(check (option int)) "hist count survives" (Some 3)
    (Option.bind (Json.member "count" summary) Json.to_int_opt);
  Alcotest.(check (option (float 0.))) "hist sum survives" (Some 6.0)
    (Option.bind (Json.member "sum" summary) Json.to_float_opt)

let test_registry_interning () =
  Obs.reset ();
  let c = Obs.counter "test.intern.c" in
  Obs.incr c;
  let c' = Obs.counter "test.intern.c" in
  Obs.incr c';
  Alcotest.(check int) "same handle" 2 (Obs.counter_value c);
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument "Obs: test.intern.c registered with another type")
    (fun () -> ignore (Obs.gauge "test.intern.c"))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"json print/parse round-trip on counters"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 10) (pair string small_nat))
    (fun kvs ->
      let obj =
        Json.Obj (List.mapi (fun i (k, v) ->
          (Printf.sprintf "%d.%s" i k, Json.Int v)) kvs)
      in
      Json.of_string (Json.to_string obj) = obj)

(* --- bench document schema validation --- *)

let minimal_doc =
  (* one fig6a document with every required series and a single point *)
  let snapshot =
    Json.Obj
      [ ("counters",
         Json.Obj
           [ ("core.scheduler.runs", Json.Int 1);
             ("entangle.coordinate.answered", Json.Int 1);
             ("storage.table.inserts", Json.Int 1);
             ("txn.lock.requests", Json.Int 1) ]);
        ("gauges", Json.Obj []);
        ("histograms", Json.Obj []) ]
  in
  let series name =
    Json.Obj
      [ ("name", Json.Str name);
        ("points",
         Json.List
           [ Json.Obj
               [ ("x", Json.Int 10);
                 ("time_s", Json.Float 0.5);
                 ("metrics", snapshot) ] ]) ]
  in
  Json.Obj
    [ ("schema_version", Json.Int Ent_obs.Schema.version);
      ("figure", Json.Str "fig6a");
      ("bench_txns", Json.Int 100);
      ("x_label", Json.Str "connections");
      ("unit", Json.Str "simulated_seconds");
      ("series",
       Json.List
         (List.map series
            [ "NoSocial-T"; "Social-T"; "Entangled-T"; "NoSocial-Q";
              "Social-Q"; "Entangled-Q" ])) ]

let test_schema_accepts_valid () =
  match Ent_obs.Schema.validate minimal_doc with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_schema_rejects_invalid () =
  let broken =
    match minimal_doc with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "figure" then (k, Json.Str "fig9") else (k, v))
           fields)
    | _ -> assert false
  in
  (match Ent_obs.Schema.validate broken with
  | Ok () -> Alcotest.fail "unknown figure accepted"
  | Error _ -> ());
  match Ent_obs.Schema.validate (Json.Obj []) with
  | Ok () -> Alcotest.fail "empty document accepted"
  | Error _ -> ()

let test_reference_fixtures_valid () =
  List.iter
    (fun fig ->
      let path = Printf.sprintf "fixtures/BENCH_%s.json" fig in
      match Ent_obs.Schema.validate_file path with
      | Ok () -> ()
      | Error errs ->
        Alcotest.fail (Printf.sprintf "%s: %s" path (String.concat "; " errs)))
    [ "fig6a"; "fig6b"; "fig6c" ]

(* --- integration: one entangled workload lights up every layer --- *)

let date y m d = Value.date_of_ymd ~y ~m ~d

let obs_manager () =
  let config =
    { Scheduler.default_config with trigger = Scheduler.Every_arrivals 4 }
  in
  let m = Manager.create ~config () in
  Manager.define_table m "Flights"
    [ ("fno", Schema.T_int); ("fdate", Schema.T_date); ("dest", Schema.T_str) ];
  Manager.define_table m "Reserve"
    [ ("name", Schema.T_str); ("what", Schema.T_str); ("item", Schema.T_int) ];
  List.iter
    (fun (fno, d, dest) -> Manager.load_row m "Flights" [ Int fno; d; Str dest ])
    [ (122, date 2011 5 3, "LA"); (123, date 2011 5 4, "LA") ];
  m

let flight_program me partner =
  Printf.sprintf
    "BEGIN TRANSACTION;\n\
     SELECT '%s', fno AS @fno, fdate INTO ANSWER FlightRes\n\
     WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA')\n\
     AND ('%s', fno, fdate) IN ANSWER FlightRes CHOOSE 1;\n\
     INSERT INTO Reserve VALUES ('%s', 'flight', @fno);\n\
     COMMIT;"
    me partner me

let update_program dest =
  Printf.sprintf
    "BEGIN TRANSACTION;\n\
     UPDATE Flights SET dest = '%s' WHERE fno = 123;\n\
     COMMIT;"
    dest

let counter_value name =
  Option.value ~default:0 (Obs.find_counter name)

let test_entangled_workload_metrics () =
  Obs.reset ();
  let m = obs_manager () in
  let mickey = Manager.submit_string m (flight_program "Mickey" "Minnie") in
  let minnie = Manager.submit_string m (flight_program "Minnie" "Mickey") in
  (* two classical writers fighting over the same row force lock waits *)
  let u1 = Manager.submit_string m (update_program "Paris") in
  let u2 = Manager.submit_string m (update_program "Tokyo") in
  Manager.drain m;
  List.iter
    (fun (name, id) ->
      match Manager.outcome m id with
      | Some Scheduler.Committed -> ()
      | o ->
        Alcotest.fail
          (Printf.sprintf "%s did not commit (%s)" name
             (match o with
             | Some Scheduler.Timed_out -> "timed out"
             | Some Scheduler.Rolled_back -> "rolled back"
             | Some (Scheduler.Errored e) -> "error: " ^ e
             | _ -> "pending")))
    [ ("mickey", mickey); ("minnie", minnie); ("u1", u1); ("u2", u2) ];
  let nonzero name =
    if counter_value name = 0 then
      Alcotest.fail (Printf.sprintf "expected %s > 0" name)
  in
  (* the paper's headline metrics: lock waits and partner matches *)
  nonzero "txn.lock.waits";
  nonzero "entangle.coordinate.answered";
  (* every layer contributed *)
  nonzero "txn.lock.requests";
  nonzero "txn.engine.commits";
  nonzero "storage.table.inserts";
  nonzero "storage.table.rows_read";
  nonzero "entangle.ground.computes";
  nonzero "core.scheduler.runs";
  (match Obs.find_histogram "core.entangle.blocked_s" with
  | Some h when Hist.count h > 0 -> ()
  | _ -> Alcotest.fail "no entangled-blocking samples");
  (* the snapshot of this run passes the layer-coverage check the
     bench schema applies to every document *)
  let prefixes = [ "txn."; "storage."; "entangle."; "core." ] in
  let names = Obs.metric_names () in
  List.iter
    (fun p ->
      if
        not
          (List.exists
             (fun n ->
               String.length n > String.length p
               && String.sub n 0 (String.length p) = p
               && counter_value n > 0)
             names)
      then Alcotest.fail (Printf.sprintf "no live metric under %s" p))
    prefixes

(* --- the causal event log: lifecycle, edges, attribution, export --- *)

let with_event_log f =
  Event.set_logging true;
  Event.reset ();
  Fun.protect
    ~finally:(fun () ->
      Event.set_logging false;
      Event.reset ())
    f

let task_events task evs = List.filter (fun (e : Event.t) -> e.task = task) evs

let kind_names evs = List.map (fun (e : Event.t) -> Event.kind_name e.kind) evs

(* Index of the first occurrence of a kind, or fail. *)
let first_index name task evs =
  match
    List.find_index (fun (e : Event.t) -> Event.kind_name e.kind = name) evs
  with
  | Some i -> i
  | None ->
    Alcotest.failf "task %d: no %s event (timeline: %s)" task name
      (String.concat " " (kind_names evs))

(* Every committed transactional task's timeline is ordered and legal:
   it enters the pool, begins, reaches ready, commits, and finalizes —
   in that order — with monotone sequence numbers and simulated time. *)
let prop_event_lifecycle =
  QCheck2.Test.make ~name:"per-txn event timelines are monotone and legal"
    ~count:25 Gen.entangled_batch_gen (fun (programs, _lonely) ->
      with_event_log @@ fun () ->
      let m = Gen.travel_manager () in
      let ids = List.map (Manager.submit m) programs in
      Manager.drain m;
      Alcotest.(check int) "ring did not overflow" 0 (Event.dropped ());
      let evs = Event.events () in
      List.iter
        (fun (e : Event.t) ->
          ignore e.seq (* events () is oldest-first by construction *))
        evs;
      List.iter
        (fun id ->
          match Manager.outcome m id with
          | Some Scheduler.Committed ->
            let tl = task_events id evs in
            (match tl with
            | [] -> Alcotest.failf "committed task %d left no events" id
            | first :: _ ->
              Alcotest.(check string)
                (Printf.sprintf "task %d starts dormant" id)
                "pool_enter"
                (Event.kind_name first.kind));
            (match List.rev tl with
            | (last : Event.t) :: _ ->
              (match last.kind with
              | Event.Finalize { outcome } ->
                Alcotest.(check string)
                  (Printf.sprintf "task %d finalize outcome" id)
                  "committed" outcome
              | _ ->
                Alcotest.failf "task %d does not end with finalize (%s)" id
                  (Event.kind_name last.kind))
            | [] -> assert false);
            let i_begin = first_index "begin" id tl in
            let i_ready = first_index "ready" id tl in
            let i_commit = first_index "commit" id tl in
            let i_final = first_index "finalize" id tl in
            if not (i_begin < i_ready && i_ready < i_commit && i_commit <= i_final)
            then
              Alcotest.failf "task %d lifecycle out of order: %s" id
                (String.concat " " (kind_names tl));
            ignore
              (List.fold_left
                 (fun ((prev_seq, prev_sim) : int * float) (e : Event.t) ->
                   if e.seq <= prev_seq then
                     Alcotest.failf "task %d: seq not increasing" id;
                   if e.t_sim < prev_sim then
                     Alcotest.failf "task %d: simulated time went backwards" id;
                   (e.seq, e.t_sim))
                 (-1, 0.0) tl)
          | _ -> ())
        ids;
      true)

(* Partner_match edges name exactly the tasks the coordination layer
   reported for the same entanglement event (the on_entangle hook is
   the schedule recorder's ground truth). *)
let prop_entangle_edges =
  QCheck2.Test.make ~name:"entanglement edges name txns that coordinated"
    ~count:25 Gen.entangled_batch_gen (fun (programs, _lonely) ->
      with_event_log @@ fun () ->
      let m = Gen.travel_manager () in
      let coordinated : (int, int list) Hashtbl.t = Hashtbl.create 8 in
      Manager.observe m ~on_event:ignore ~on_entangle:(fun ~event participants ->
          let tasks =
            List.filter_map
              (fun (txn, _tables) -> Event.task_of_txn txn)
              participants
          in
          Hashtbl.replace coordinated event tasks);
      List.iter (fun p -> ignore (Manager.submit m p)) programs;
      Manager.drain m;
      let matches =
        List.filter_map
          (fun (e : Event.t) ->
            match e.kind with
            | Event.Partner_match { event; peers } ->
              Some (event, e.task, peers)
            | _ -> None)
          (Event.events ())
      in
      List.iter
        (fun (event, task, peers) ->
          match Hashtbl.find_opt coordinated event with
          | None ->
            Alcotest.failf
              "partner_match for event %d has no coordination record" event
          | Some tasks ->
            let edge = List.sort compare (task :: peers) in
            if List.sort compare tasks <> edge then
              Alcotest.failf
                "event %d: partner_match names [%s], coordination saw [%s]"
                event
                (String.concat "," (List.map string_of_int edge))
                (String.concat "," (List.map string_of_int tasks)))
        matches;
      true)

(* The attribution is an exact partition: per committed task, the five
   phase times sum to the measured first-event→finalize interval. *)
let prop_attrib_partition =
  QCheck2.Test.make ~name:"phase attribution partitions each txn's latency"
    ~count:25 Gen.entangled_batch_gen (fun (programs, _lonely) ->
      with_event_log @@ fun () ->
      let m = Gen.travel_manager () in
      List.iter (fun p -> ignore (Manager.submit m p)) programs;
      Manager.drain m;
      let reports =
        Attrib.of_events ~time:(fun (e : Event.t) -> e.t_sim) (Event.events ())
      in
      List.iter
        (fun (r : Attrib.txn_report) ->
          if r.outcome = Some "committed" then begin
            let attributed =
              List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.by_phase
            in
            if Float.abs (attributed -. r.total_s) > 1e-9 then
              Alcotest.failf "task %d: attributed %.9f <> measured %.9f" r.task
                attributed r.total_s
          end)
        reports;
      true)

(* A fixed two-pair workload: the Perfetto export round-trips through
   Obs.Json preserving the event count, passes the trace validator,
   and its flow (entanglement) edges agree with the group commits. *)
let test_trace_export () =
  with_event_log @@ fun () ->
  let m = Gen.travel_manager () in
  let submit s = ignore (Manager.submit m (Program.of_string s)) in
  submit (Gen.flight_program "Mickey" "Minnie");
  submit (Gen.flight_program "Minnie" "Mickey");
  submit (Gen.flight_program "Donald" "Daisy");
  submit (Gen.flight_program "Daisy" "Donald");
  Manager.drain m;
  let evs = Event.events () in
  let doc = Trace.to_json evs in
  (* 1. validator accepts the export *)
  Alcotest.(check bool) "export is a trace document" true (Ent_obs.Schema.is_trace doc);
  (match Ent_obs.Schema.validate_trace doc with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* 2. print/parse round-trip preserves the document and the counts *)
  let reparsed = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "round-trip preserves the document" true
    (reparsed = doc);
  let trace_events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let phase p =
    List.filter
      (fun ev -> Json.member "ph" ev = Some (Json.Str p))
      trace_events
  in
  Alcotest.(check int) "one instant per log event" (List.length evs)
    (List.length (phase "i"));
  (* 3. every entangled pair that group-committed appears as one flow
     edge (s/f pair) between the partners' tracks *)
  let committed_pairs =
    List.fold_left
      (fun acc (e : Event.t) ->
        match e.kind with
        | Event.Group_commit { members } ->
          let k = List.length members in
          acc + (k * (k - 1) / 2)
        | _ -> acc)
      0 evs
  in
  Alcotest.(check int) "two entangled pairs committed" 2 committed_pairs;
  Alcotest.(check int) "flow starts match group-commit pairs" committed_pairs
    (List.length (phase "s"));
  Alcotest.(check int) "flow finishes match group-commit pairs" committed_pairs
    (List.length (phase "f"));
  (* 4. corrupting the document trips the validator: drop one flow
     finish so the start/finish multisets no longer balance *)
  let broken =
    match doc with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k <> "traceEvents" then (k, v)
             else
               match v with
               | Json.List l ->
                 let dropped_one = ref false in
                 ( k,
                   Json.List
                     (List.filter
                        (fun ev ->
                          if
                            (not !dropped_one)
                            && Json.member "ph" ev = Some (Json.Str "f")
                          then begin
                            dropped_one := true;
                            false
                          end
                          else true)
                        l) )
               | _ -> (k, v))
           fields)
    | _ -> assert false
  in
  match Ent_obs.Schema.validate_trace broken with
  | Ok () -> Alcotest.fail "unbalanced flow events accepted"
  | Error _ -> ()

(* --- the stamped per-domain buffer --- *)

(* Pool items push (item, k) for k = 0.. on whatever domain runs them:
   the drain holds every value once, each item's pushes in program
   order, and leaves the buffer empty. *)
let test_stamped_drain () =
  let b = Stamped.create () in
  let pool = Ent_par.Pool.create ~domains:4 in
  let items = 40 and per_item = 250 in
  Fun.protect ~finally:(fun () -> Ent_par.Pool.shutdown pool) (fun () ->
      Ent_par.Pool.run_indexed pool items (fun i ->
          for k = 0 to per_item - 1 do
            Stamped.push b (i, k)
          done));
  let drained = Stamped.drain b in
  Alcotest.(check int) "every push drained" (items * per_item)
    (List.length drained);
  let next = Array.make items 0 in
  List.iter
    (fun (i, k) ->
      if k <> next.(i) then
        Alcotest.failf "item %d: push %d drained where %d was due" i k next.(i);
      next.(i) <- k + 1)
    drained;
  Alcotest.(check (list (pair int int))) "drain empties" [] (Stamped.drain b)

(* Two domains take turns through an Atomic handshake, each pushing its
   turn number before passing the turn on: pushes ordered by the
   handshake drain in that order, though they sit in different
   shards. *)
let test_stamped_handshake () =
  let b = Stamped.create () in
  let turns = 2_000 in
  let turn = Atomic.make 0 in
  let play parity =
    for n = 0 to turns - 1 do
      if n land 1 = parity then begin
        while Atomic.get turn <> n do
          Domain.cpu_relax ()
        done;
        Stamped.push b n;
        Atomic.set turn (n + 1)
      end
    done
  in
  let other = Domain.spawn (fun () -> play 1) in
  play 0;
  Domain.join other;
  Alcotest.(check (list int)) "handshake order" (List.init turns Fun.id)
    (Stamped.drain b);
  Stamped.push b 7;
  Stamped.clear b;
  Alcotest.(check (list int)) "clear empties" [] (Stamped.drain b)

let test_event_log_off_is_noop () =
  Event.set_logging false;
  Event.reset ();
  Event.emit ~txn:1 ~task:1 Event.Begin;
  Event.emit (Event.Run_start { pool = 3 });
  Alcotest.(check int) "no events recorded" 0 (List.length (Event.events ()))

let () =
  Alcotest.run "obs"
    [ ( "hist",
        [ Gen.to_alcotest prop_hist_quantile;
          Alcotest.test_case "edge cases" `Quick test_hist_edge_cases ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "interning" `Quick test_registry_interning;
          Gen.to_alcotest prop_json_roundtrip ] );
      ( "schema",
        [ Alcotest.test_case "accepts valid" `Quick test_schema_accepts_valid;
          Alcotest.test_case "rejects invalid" `Quick
            test_schema_rejects_invalid;
          Alcotest.test_case "paper-scale reference fixtures" `Quick
            test_reference_fixtures_valid ] );
      ( "stamped",
        [ Alcotest.test_case "drain holds every push in order" `Quick
            test_stamped_drain;
          Alcotest.test_case "handshake orders the drain" `Quick
            test_stamped_handshake ] );
      ( "integration",
        [ Alcotest.test_case "entangled workload lights up every layer"
            `Quick test_entangled_workload_metrics ] );
      ( "events",
        [ Gen.to_alcotest prop_event_lifecycle;
          Gen.to_alcotest prop_entangle_edges;
          Gen.to_alcotest prop_attrib_partition;
          Alcotest.test_case "Perfetto export: round-trip, flows, validator"
            `Quick test_trace_export;
          Alcotest.test_case "logging off records nothing" `Quick
            test_event_log_off_is_noop ] ) ]

(* One repetition of one workload, run in a fresh child process.

   Set-up (world build, then generation of the whole stream) is timed
   separately from the measured section. The measured section offers
   the stream in arrival blocks of [frequency]: [frequency] submits,
   then one [Manager.run_once], and a final [Manager.drain]. With
   [trigger = Manual] this is step-for-step the same schedule as
   [Every_arrivals frequency]; the check pass verifies that on every
   workload by comparing simulated time.

   All measurement is taken from outside the library: the ledger times
   its own calls into [Manager], and reads [Scheduler.stats],
   [Scheduler.gcache_stats], the [Obs] counters and, in a traced
   repetition, the [Event] log folded by [Attrib]. *)

open Ent_core
open Ent_workload
module Obs = Ent_obs.Obs
module Event = Ent_obs.Event
module Attrib = Ent_obs.Attrib
module Json = Ent_obs.Json

let now = Ent_obs.Clock.monotonic

type mode =
  | Timed  (** untraced: end-to-end metrics and layer counts *)
  | Traced  (** event log on: layer times *)
  | Check  (** online certifier attached *)
  | Auto  (** [Every_arrivals] trigger instead of the manual loop *)

let mode_name = function
  | Timed -> "timed"
  | Traced -> "traced"
  | Check -> "check"
  | Auto -> "auto"

let mode_of_string = function
  | "timed" -> Some Timed
  | "traced" -> Some Traced
  | "check" -> Some Check
  | "auto" -> Some Auto
  | _ -> None

(* Nearest-rank percentile; 0 on an empty sample. *)
let percentile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The reasons of the checks that did not hold. *)
let failed checks = List.filter_map (fun (ok, reason) -> if ok then None else Some reason) checks
let count name = float_of_int (Option.value ~default:0 (Obs.find_counter name))

(* What the measured section saw, in ledger time. *)
type offered = {
  wall_s : float;
  submit_s : float;
  run_s : float;
  harness_s : float;
  ids : int list;  (** task ids, in submission order *)
  latencies : float list;  (** per tracked task: submit → decided *)
  run_samples : float list;  (** duration of each [run_once] call *)
}

(* The closed batch: every submit and every run call is timed, and
   after each run call the still-undecided tracked tasks are polled
   with [Manager.outcome]. A task's latency runs from the start of its
   [submit] to the return of the first run call after which its
   outcome is decided. The poll is the ledger's own cost
   ([harness_s]). *)
let offer manager (items : Streams.item list) ~frequency =
  let submit_s = ref 0.0 and run_s = ref 0.0 and harness_s = ref 0.0 in
  let ids = ref [] and undecided = ref [] and latencies = ref [] and run_samples = ref [] in
  let call_run ~sample f =
    let t0 = now () in
    f manager;
    let t1 = now () in
    run_s := !run_s +. (t1 -. t0);
    if sample then run_samples := (t1 -. t0) :: !run_samples;
    undecided :=
      List.filter
        (fun (id, t_submit) ->
          match Manager.outcome manager id with
          | None -> true
          | Some _ ->
            latencies := (t1 -. t_submit) :: !latencies;
            false)
        !undecided;
    harness_s := !harness_s +. (now () -. t1)
  in
  let t_start = now () in
  List.iteri
    (fun i (item : Streams.item) ->
      let t0 = now () in
      let id = Manager.submit manager item.program in
      submit_s := !submit_s +. (now () -. t0);
      ids := id :: !ids;
      if item.tracked then undecided := (id, t0) :: !undecided;
      if (i + 1) mod frequency = 0 then call_run ~sample:true Manager.run_once)
    items;
  call_run ~sample:false Manager.drain;
  {
    wall_s = now () -. t_start;
    submit_s = !submit_s;
    run_s = !run_s;
    harness_s = !harness_s;
    ids = List.rev !ids;
    latencies = !latencies;
    run_samples = !run_samples;
  }

(* Σ over coordination rounds of the time until the next event: the
   search plus the match bookkeeping that follows it, an upper bound
   on [Coordinate.evaluate]'s own time. *)
let search_time events =
  let rec go acc = function
    | ({ Event.kind = Event.Coord_round _; t_mono; _ } : Event.t)
      :: (next :: _ as rest) ->
      go (acc +. (next.Event.t_mono -. t_mono)) rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  go 0.0 events

(* Σ over tracked tasks of the time from their [Finalize] to the end
   of that run: decided, but not yet returned to the caller. The five
   attribution phases end at [Finalize], so this is the part of the
   ledger's latency they leave out. *)
let run_tail ~tracked events =
  let run_end = Hashtbl.create 256 in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Run_end _ -> Hashtbl.replace run_end e.run e.t_mono
      | _ -> ())
    events;
  List.fold_left
    (fun acc (e : Event.t) ->
      match (e.kind, Hashtbl.find_opt run_end e.run) with
      | Event.Finalize _, Some t_end when Hashtbl.mem tracked e.task ->
        acc +. (t_end -. e.t_mono)
      | _ -> acc)
    0.0 events

(* Per-layer times out of the event log: the five attribution phases
   and the run tail summed over tracked tasks, and the coordination
   search. *)
let traced_metrics ~tracked ~coord_phase_s =
  let events = Event.events () in
  let reports =
    List.filter
      (fun (r : Attrib.txn_report) -> Hashtbl.mem tracked r.task)
      (Attrib.of_events ~time:(fun e -> e.Event.t_mono) events)
  in
  let phase p =
    List.fold_left
      (fun acc (r : Attrib.txn_report) -> acc +. List.assoc p r.by_phase)
      0.0 reports
  in
  let search_s = search_time events in
  let n_events = List.length events in
  let offloaded = List.length (List.filter (fun e -> e.Event.domain <> 0) events) in
  [
    ("core.in_pool_s", phase Attrib.In_pool);
    ("core.executing_s", phase Attrib.Executing);
    ("core.committing_s", phase Attrib.Committing);
    ("txn.lock_blocked_s", phase Attrib.Lock_blocked);
    ("entangle.blocked_s", phase Attrib.Entangle_blocked);
    ("core.run_tail_s", run_tail ~tracked events);
    ("entangle.search_s", search_s);
    ("entangle.ground_s", coord_phase_s -. search_s);
    ( "attrib_sum_s",
      List.fold_left (fun acc (r : Attrib.txn_report) -> acc +. r.total_s) 0.0 reports
    );
    ("par.offload_ratio", ratio (float_of_int offloaded) (float_of_int n_events));
    ("obs.events", float_of_int n_events);
    ("obs.events_dropped", float_of_int (Event.dropped ()));
  ]

(* Layer counts, read from public state after the measured section. *)
let count_metrics manager ~tasks =
  let stats = Manager.stats manager in
  let hits, misses, invalidations =
    Scheduler.gcache_stats (Manager.scheduler manager)
  in
  let commits = count "txn.engine.commits" in
  let answered = count "entangle.coordinate.answered" in
  [
    ("core.runs", float_of_int stats.runs);
    ("core.repool_ratio", ratio (float_of_int stats.repooled) (float_of_int tasks));
    ("core.widow_preventions", count "core.scheduler.widow_preventions");
    ("entangle.ground.computes", count "entangle.ground.computes");
    ("entangle.ground.valuations", count "entangle.ground.valuations");
    ( "entangle.gcache.hit_ratio",
      ratio (float_of_int hits) (float_of_int (hits + misses)) );
    ("entangle.gcache.invalidations", float_of_int invalidations);
    ("entangle.coordinate.evaluations", count "entangle.coordinate.evaluations");
    ("entangle.coordinate.nodes_expanded", count "entangle.coordinate.nodes_expanded");
    ( "entangle.coordinate.answer_ratio",
      ratio answered
        (answered +. count "entangle.coordinate.empty"
        +. count "entangle.coordinate.no_partner") );
    ("txn.lock.requests", count "txn.lock.requests");
    ("txn.lock.wait_ratio", ratio (count "txn.lock.waits") (count "txn.lock.requests"));
    ("txn.engine.aborts", count "txn.engine.aborts");
    ("txn.engine.writes_undone", count "txn.engine.writes_undone");
    ("txn.engine.begins_per_commit", ratio (count "txn.engine.begins") commits);
    ("txn.si_validations", count "txn.si_validations");
    ("txn.si_aborts", count "txn.si_aborts");
    ("txn.wal.appends_per_commit", ratio (count "txn.wal.appends") commits);
    ("storage.rows_read_per_commit", ratio (count "storage.table.rows_read") commits);
    ("storage.index.lookups", count "storage.index.lookups");
    ("storage.index.missing_lookups", count "storage.index.missing_lookups");
    ("storage.table.scans", count "storage.table.scans");
    ("storage.mvcc.versions_gcd", count "storage.mvcc.versions_gcd");
  ]

type result = {
  metrics : (string * float) list;
  failures : string list;  (** failed correctness checks *)
}

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1_048_576.0

(* Run one repetition: every metric it can measure, by name, and the
   correctness checks it failed. *)
let run (w : Streams.t) ~mode ~seed ~scale =
  let n =
    (* entangled streams are built from pairs *)
    2 * max 1 (int_of_float (Float.round (float_of_int w.txns *. scale /. 2.0)))
  in
  let runner =
    if w.domains > 1 then Some (Ent_par.Pool.create ~domains:w.domains) else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Ent_par.Pool.shutdown runner)
    (fun () ->
      let trigger =
        if mode = Auto then Scheduler.Every_arrivals w.frequency else Scheduler.Manual
      in
      let config =
        {
          Scheduler.default_config with
          connections = Streams.connections;
          trigger;
          runner;
        }
      in
      let t0 = now () in
      let world =
        Travel.build ~seed ~users:Streams.users ~cities:Streams.cities ~config
          ~wal:w.wal ()
      in
      let t1 = now () in
      let items = w.stream world ~n in
      let t2 = now () in
      let manager = world.manager in
      let certifier =
        if mode = Check then begin
          let c = Ent_schedule.Certify.create () in
          Manager.observe manager
            ~on_event:(Ent_schedule.Certify.on_engine_event c)
            ~on_entangle:(Ent_schedule.Certify.on_entangle c);
          Some c
        end
        else None
      in
      Obs.reset ();
      if mode = Traced then begin
        (* room for every event of the repetition: a dropped event would
           leave a task's timeline incomplete *)
        Event.set_capacity (List.length items * 256);
        Event.set_logging true
      end;
      (* Under [Auto] the trigger starts every run from inside [submit]:
         offer the whole stream, then drain. *)
      let offered =
        offer manager items ~frequency:(if mode = Auto then max_int else w.frequency)
      in
      Event.set_logging false;
      (* Correctness: every tracked task committed, and Reserve holds
         exactly one row per committed inserting program. *)
      let tracked = Hashtbl.create (List.length items) in
      let committed = ref 0 and booked = ref 0 in
      List.iter2
        (fun id (it : Streams.item) ->
          let ok = Manager.outcome manager id = Some Scheduler.Committed in
          if it.tracked then begin
            Hashtbl.replace tracked id ();
            if ok then incr committed
          end;
          if ok && it.inserts then incr booked)
        offered.ids items;
      let tasks = Hashtbl.length tracked in
      let rows = Travel.reservations world in
      let failures =
        failed
          [
            ( !committed = tasks,
              Printf.sprintf "fail_ratio: %d of %d tracked tasks not committed"
                (tasks - !committed) tasks );
            ( rows = !booked,
              Printf.sprintf "reserve_rows: %d rows for %d committed bookings" rows !booked );
          ]
        @
        match certifier with
        | Some c when not (Ent_schedule.Certify.ok c) ->
          [ Format.asprintf "certify: %a" Ent_schedule.Certify.pp_report c ]
        | _ -> []
      in
      let stats = Manager.stats manager in
      let coord_phase_s = stats.coord_wall_s in
      let latencies = offered.latencies in
      let latency_sum = List.fold_left ( +. ) 0.0 latencies in
      let base =
        [
          ("tasks", float_of_int tasks);
          ("committed", float_of_int !committed);
          ("sim_s", Manager.now manager);
          ("commit_tps", ratio (float_of_int !committed) offered.wall_s);
          ("latency_p50_ms", 1000.0 *. percentile 0.5 latencies);
          ("latency_p90_ms", 1000.0 *. percentile 0.9 latencies);
          ("setup_s", t2 -. t0);
          ("heap_peak_mb", heap_peak_mb ());
          ("wall_s", offered.wall_s);
          ("workload.build_s", t1 -. t0);
          ("sql.gen_parse_s", t2 -. t1);
          ("core.submit_s", offered.submit_s);
          ("core.run_s", offered.run_s);
          ("core.step_s", offered.run_s -. coord_phase_s);
          ("core.run_ms_p50", 1000.0 *. percentile 0.5 offered.run_samples);
          ("core.run_ms_p90", 1000.0 *. percentile 0.9 offered.run_samples);
          ("entangle.coord_phase_s", coord_phase_s);
          ("entangle.coord_share", ratio coord_phase_s offered.wall_s);
          ("bench.harness_s", offered.harness_s);
        ]
        @ count_metrics manager ~tasks
      in
      let traced, traced_failures =
        if mode <> Traced then ([], [])
        else begin
          let m = traced_metrics ~tracked ~coord_phase_s in
          let get k = List.assoc k m in
          let accounted = offered.submit_s +. offered.run_s +. offered.harness_s in
          let attributed = get "attrib_sum_s" +. get "core.run_tail_s" in
          ( m,
            failed
              [
                ( get "obs.events_dropped" = 0.0,
                  Printf.sprintf "events_dropped: %.0f events lost"
                    (get "obs.events_dropped") );
                ( Float.abs (offered.wall_s -. accounted) <= 0.02 *. offered.wall_s,
                  Printf.sprintf
                    "wall_sum: wall %.4fs vs submit+run+harness %.4fs"
                    offered.wall_s accounted );
                ( Float.abs (attributed -. latency_sum) <= 0.05 *. latency_sum,
                  Printf.sprintf
                    "attrib_sum: attribution phases + run tail %.4fs vs ledger \
                     latency %.4fs"
                    attributed latency_sum );
              ] )
        end
      in
      { metrics = base @ traced; failures = failures @ traced_failures })

let to_json r =
  Json.Obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics));
      ("failures", Json.List (List.map (fun s -> Json.Str s) r.failures));
    ]

let of_json doc =
  {
    metrics =
      (match Json.member "metrics" doc with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v)) kvs
      | _ -> []);
    failures =
      (match Json.member "failures" doc with
      | Some (Json.List l) -> List.filter_map Json.to_string_opt l
      | _ -> []);
  }

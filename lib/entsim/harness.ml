(* The entsim simulation harness: drive a randomized entangled workload
   under a seeded fault plan, crash and recover as the plan dictates,
   and mechanically check the recovery invariants after every crash and
   at quiescence.

   Everything in the system under test is deterministic (seeded graph
   generation, simulated time, ordered data structures), so a (seed,
   plan) pair replays the exact same execution — which is what makes
   one-line repro commands and greedy plan shrinking sound. *)

open Ent_storage
open Ent_core
module Fault = Ent_fault.Injector
module Plan = Ent_fault.Plan
module Rng = Ent_fault.Rng
module Wal = Ent_txn.Wal
module Recovery = Ent_txn.Recovery
module Recorder = Ent_schedule.Recorder
module Certify = Ent_schedule.Certify
module Histcheck = Ent_analysis.Histcheck
module Event = Ent_obs.Event
module Timeseries = Ent_obs.Timeseries
module Flight = Ent_obs.Flight

type config = {
  seed : int;
  pairs : int;  (* well-behaved entangled pairs *)
  rollback_pairs : int;  (* pairs whose second member rolls back after entangling *)
  plain : int;  (* classical (non-entangled) transactions *)
  lonely : int;  (* partner-less entangled programs: they populate the dormant pool *)
  users : int;
  cities : int;
  max_arms : int;  (* upper bound on generated fault-plan arms *)
  break_group_commit : bool;  (* run without group commit (widow detector test) *)
  isolation : string;
      (* per-transaction level of the workload: "2pl" (all Strict 2PL),
         "si" (all snapshot), "mixed" (alternating) *)
  timeline : int;  (* events attached per violation timeline *)
}

let default =
  {
    seed = 0;
    pairs = 5;
    rollback_pairs = 2;
    plain = 4;
    lonely = 2;
    users = 60;
    cities = 6;
    max_arms = 4;
    break_group_commit = false;
    isolation = "2pl";
    timeline = 16;
  }

type violation = {
  invariant : string;
  detail : string;
  timeline : string list;
      (* last events involving the implicated txns/tasks (or the global
         tail when the invariant names nobody), rendered one per line *)
}

type outcome = {
  plan : Plan.t;
  crashes : int;
  flush_failures : int;
  commits : int;
  sites : (string * int) list;  (* per-site hit counts over the whole run *)
  violations : violation list;
  wait_graph : string option;
      (* who-waits-on-whom snapshot, captured only when violations exist *)
  flight : Ent_obs.Json.t option;
      (* flight-recorder dump (metrics + time-series + event ring +
         wait graph), captured only when violations exist *)
}

let scheduler_config cfg timeseries =
  {
    Scheduler.default_config with
    isolation =
      (if cfg.break_group_commit then Isolation.no_group_commit
       else Isolation.full);
    trigger = Scheduler.Every_arrivals 4;
    snapshot_pool = true;
    timeseries = Some timeseries;
  }

(* The workload is a fixed deterministic mix; the seed varies the
   social graph (and hence partners and destinations), the plan varies
   the faults. Rollback pairs entangle first and roll back afterwards —
   the schedule shape that becomes a widow when group commit is off. *)
let build_programs cfg world =
  let entangled =
    Ent_workload.Gen.batch world ~transactional:true Ent_workload.Gen.Entangled
      ~n:(2 * cfg.pairs) ~tag_base:0
  in
  let rollback =
    Ent_workload.Gen.batch world ~transactional:true Ent_workload.Gen.Entangled
      ~n:(2 * cfg.rollback_pairs) ~tag_base:100
    |> List.mapi (fun i (p : Program.t) ->
           if i mod 2 = 1 then
             let ast : Ent_sql.Ast.program =
               {
                 p.ast with
                 body =
                   List.filteri (fun j _ -> j < 2) p.ast.body
                   @ [ (Ent_sql.Ast.Rollback, Ent_sql.Ast.no_pos) ];
               }
             in
             Program.make ~label:(p.label ^ "-abort") ~transactional:true ast
           else p)
  in
  let plain =
    Ent_workload.Gen.batch world ~transactional:true Ent_workload.Gen.No_social
      ~n:cfg.plain ~tag_base:200
  in
  let lonely = Ent_workload.Gen.lonely world ~n:cfg.lonely ~tag_base:300 in
  let programs = entangled @ rollback @ plain @ lonely in
  (* Per-transaction isolation: snapshot programs survive pool
     snapshots too — the level travels in the serialized header. *)
  let snap (p : Program.t) =
    Program.make ~label:p.label ~transactional:p.transactional
      ~isolation:Ent_txn.Engine.Snapshot p.ast
  in
  match cfg.isolation with
  | "si" -> List.map snap programs
  | "mixed" ->
    List.mapi (fun i p -> if i land 1 = 1 then snap p else p) programs
  | _ -> programs

(* --- invariant machinery --- *)

(* Canonical, comparable image of a store: tables sorted by name, rows
   sorted by id, values printed (robust to representation changes). *)
let dump_catalog catalog =
  let tables = ref [] in
  Catalog.iter
    (fun name table ->
      let rows =
        List.map
          (fun (id, row) -> (id, List.map Value.to_string (Tuple.to_list row)))
          (Table.to_list table)
      in
      tables := (name, List.sort compare rows) :: !tables)
    catalog;
  List.sort compare !tables

(* Independent survivor-view replay: apply the after-images of the
   analysis' survivors in log order, with checkpoint resets — a
   deliberately naive second opinion against [Recovery.replay]. *)
let model_store records (analysis : Recovery.analysis) =
  let tables : (string, (int, string list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let table name =
    match Hashtbl.find_opt tables name with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 64 in
      Hashtbl.replace tables name t;
      t
  in
  let strings row = List.map Value.to_string (Tuple.to_list row) in
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Create { table = name; _ } -> ignore (table name)
      | Drop { table = name } -> Hashtbl.remove tables name
      | Checkpoint { tables = images } ->
        Hashtbl.reset tables;
        List.iter
          (fun (name, _cols, rows) ->
            let t = table name in
            List.iter (fun (id, row) -> Hashtbl.replace t id (strings row)) rows)
          images
      | Write { txn; table = name; row; after; _ }
        when List.mem txn analysis.survivors -> (
        let t = table name in
        match after with
        | Some v -> Hashtbl.replace t row (strings v)
        | None -> Hashtbl.remove t row)
      | _ -> ())
    records;
  Hashtbl.fold
    (fun name t acc ->
      let rows = Hashtbl.fold (fun id row acc -> (id, row) :: acc) t [] in
      (name, List.sort compare rows) :: acc)
    tables []
  |> List.sort compare

(* Group atomicity: within every logged entanglement group, the
   committed members either all survive recovery or all are rolled
   back (the §4 entanglement-aware rule, checked from outside). *)
let group_atomic (analysis : Recovery.analysis) =
  List.for_all
    (fun group ->
      let committed_members =
        List.filter (fun m -> List.mem m analysis.committed) group
      in
      let surviving =
        List.filter (fun m -> List.mem m analysis.survivors) committed_members
      in
      surviving = [] || List.length surviving = List.length committed_members)
    analysis.groups

let ints xs = String.concat "," (List.map string_of_int xs)

(* Invariants on one crash image: replay succeeds, is group-atomic,
   matches the independent survivor-view model, and is deterministic.
   [viol ids invariant detail] records a violation; [ids] names the
   implicated txns/tasks so the report can attach their event timeline. *)
let check_image viol image recovered (analysis : Recovery.analysis) =
  if not (group_atomic analysis) then
    viol (List.concat analysis.groups) "group-atomicity"
      (Printf.sprintf
         "half-surviving entanglement group in crash image (groups: %s; survivors: %s)"
         (String.concat " | " (List.map ints analysis.groups))
         (ints analysis.survivors));
  let live = dump_catalog recovered in
  if live <> model_store image analysis then
    viol [] "durability"
      "replayed store differs from independent survivor-view model";
  let again, _ = Recovery.replay image in
  if dump_catalog again <> live then
    viol [] "replay-determinism" "two replays of the same crash image differ"

(* --- the simulation --- *)

type step = Run | Recover of Wal.record list | Done

let run (cfg : config) plan =
  Fault.deactivate ();
  (* Event logging is always on under simulation: it is cheap at entsim
     scale and every violation report attaches the implicated txns'
     timelines. The log survives crash/recover cycles (the ring is
     process-global), so a timeline can span epochs. *)
  Event.set_logging true;
  Event.reset ();
  (* Continuous telemetry is always on under simulation: the flight
     recorder attached to a violation wants the last seconds of
     time-series history. Every epoch's scheduler samples the same
     series (recovery passes the config on), so its windows span
     crashes. Sub-second windows because entsim runs are short. *)
  let timeseries = Timeseries.create ~width:0.25 ~capacity:512 () in
  let violations = ref [] in
  let viol ids invariant detail =
    let timeline =
      List.map Event.render (Event.recent ~ids ~last:cfg.timeline ())
    in
    violations := { invariant; detail; timeline } :: !violations
  in
  let sched_config = scheduler_config cfg timeseries in
  let world =
    Ent_workload.Travel.build ~seed:(cfg.seed + 1) ~users:cfg.users
      ~cities:cfg.cities ~config:sched_config ~wal:true ()
  in
  let mgr = ref world.Ent_workload.Travel.manager in
  (* One recorder and one certifier per epoch, attached to the epoch's
     fresh manager: engine transaction ids restart from the recovered
     log's high-water mark, so an epoch is a self-contained schedule.
     The certifier sees each Ev_begin, so snapshot reads are judged
     where the snapshot was taken. *)
  let attach m =
    let r = Recorder.create () in
    Manager.observe m ~on_event:(Recorder.on_engine_event r)
      ~on_entangle:(Recorder.on_entangle r);
    let c = Certify.create () in
    Manager.observe m ~on_event:(Certify.on_engine_event c)
      ~on_entangle:(Certify.on_entangle c);
    (r, c)
  in
  let epoch = ref (attach !mgr) in
  let epoch_live = ref true in
  let histories = ref [] in
  let close_epoch () =
    let r, c = !epoch in
    (c, Recorder.completed_history r)
  in
  let commits = ref 0 in
  let crashes = ref 0 in
  let flush_failures = ref 0 in
  let last_resumed = ref [] in
  let aborted_sim = ref false in
  let pending = Queue.create () in
  List.iter (fun p -> Queue.add p pending) (build_programs cfg world);
  let check_no_errors m =
    List.iter
      (fun (id, oc) ->
        match oc with
        | Scheduler.Errored msg ->
          viol [ id ] "no-errors" (Printf.sprintf "task %d errored: %s" id msg)
        | Scheduler.Committed | Scheduler.Timed_out | Scheduler.Rolled_back ->
          ())
      (Manager.results m)
  in
  let crash_budget = ref 12 in
  Fault.install plan;
  Fun.protect ~finally:Fault.deactivate @@ fun () ->
  let step = ref Run in
  let finished = ref false in
  while not !finished do
    (try
       match !step with
       | Done -> finished := true
       | Run ->
         while not (Queue.is_empty pending) do
           ignore (Manager.submit !mgr (Queue.pop pending))
         done;
         Manager.drain !mgr;
         step := Done
       | Recover image -> (
         match Recovery.replay image with
         | exception exn ->
           viol [] "recovery"
             (Printf.sprintf "replay of the crash image raised %s"
                (Printexc.to_string exn));
           aborted_sim := true;
           step := Done
         | recovered, analysis ->
           check_image viol image recovered analysis;
           (* Rebuild: the recovered engine continues the crashed log
              (durable records are not re-logged), so crashing again at
              any point cannot lose previously durable state. *)
           let engine, _ = Ent_txn.Engine.recover image in
           (* Version chains are volatile MVCC state: a recovered
              engine must start from the durable images alone. *)
           if Ent_txn.Engine.chain_entries engine <> 0 then
             viol [] "version-gc"
               "recovered engine starts with non-empty version chains";
           mgr := Manager.create_with_engine ~config:sched_config engine;
           epoch := attach !mgr;
           epoch_live := true;
           (* Dormant-pool survivors resume: every program of the last
              snapshot must deserialize and resubmit. *)
           let ids =
             List.filter_map
               (fun serialized ->
                 match Program.of_serialized serialized with
                 | p -> Some (Manager.submit !mgr p)
                 | exception exn ->
                   viol [] "pool-resume"
                     (Printf.sprintf
                        "dormant program failed to deserialize: %s"
                        (Printexc.to_string exn));
                   None)
               analysis.pool
           in
           last_resumed := ids;
           step := Run)
     with Fault.Crashed _ | Fault.Failed _ ->
       incr crashes;
       decr crash_budget;
       if !crash_budget <= 0 then Fault.deactivate ();
       if !epoch_live then begin
         histories := close_epoch () :: !histories;
         commits := !commits + (Manager.stats !mgr).Scheduler.commits;
         check_no_errors !mgr;
         epoch_live := false
       end;
       last_resumed := [];
       let wal = Option.get (Ent_txn.Engine.log (Manager.engine !mgr)) in
       step := Recover (Wal.crash_records wal))
  done;
  if not !aborted_sim then begin
    if !epoch_live then begin
      histories := close_epoch () :: !histories;
      commits := !commits + (Manager.stats !mgr).Scheduler.commits
    end;
    check_no_errors !mgr;
    (* Resumed dormant survivors must either have finished or still be
       waiting — never silently vanish. *)
    List.iter
      (fun id ->
        match Manager.outcome !mgr id with
        | Some _ -> ()
        | None ->
          if not (List.mem id (Scheduler.dormant (Manager.scheduler !mgr)))
          then
            viol [ id ] "pool-resume"
              (Printf.sprintf "resumed dormant task %d vanished" id))
      !last_resumed;
    let wal = Option.get (Ent_txn.Engine.log (Manager.engine !mgr)) in
    let final_records = Wal.records wal in
    (* A quiescent log must be widow-free: no committed transaction may
       need the entanglement rule's rollback once the system drained. *)
    let analysis = Recovery.analyze final_records in
    if analysis.group_victims <> [] then
      viol analysis.group_victims "widow"
        (Printf.sprintf "quiescent log has entanglement-rule victims: %s"
           (ints analysis.group_victims));
    (* MVCC GC: with the pool drained no snapshot is live, so every
       version chain must have been garbage-collected by run end. *)
    let chains = Ent_txn.Engine.chain_entries (Manager.engine !mgr) in
    if chains <> 0 then
      viol [] "version-gc"
        (Printf.sprintf "quiescent engine retains %d version-chain entr%s"
           chains
           (if chains = 1 then "y" else "ies"));
    (* Durability at quiescence: replaying the final log reproduces the
       live store exactly. *)
    (match Recovery.replay final_records with
    | exception exn ->
      viol [] "recovery"
        (Printf.sprintf "replay of the quiescent log raised %s"
           (Printexc.to_string exn))
    | replayed, _ ->
      if dump_catalog replayed <> dump_catalog (Manager.catalog !mgr) then
        viol [] "durability" "quiescent replay differs from the live store");
    (* Every epoch's completed history must pass the Appendix C
       checker, as judged by the certifier that watched it (widow
       detection lives here when no group is logged). *)
    List.iteri
      (fun i (c, h) ->
        let report = Histcheck.check c h in
        if not (Histcheck.ok report) then
          viol [] "history"
            (Format.asprintf "epoch %d history fails the checker:@ %a" i
               Histcheck.pp report))
      (List.rev !histories);
    (* Flush phase: a log flush either round-trips or, when the plan
       forces a failure, leaves a loadable prefix on disk. *)
    let tmp = Filename.temp_file "entsim" ".wal" in
    (match Wal.save wal tmp with
    | () -> (
      match Wal.load tmp with
      | reloaded ->
        if Wal.records reloaded <> final_records then
          viol [] "flush" "saved log does not round-trip"
      | exception exn ->
        viol [] "flush"
          (Printf.sprintf "saved log failed to load: %s"
             (Printexc.to_string exn)))
    | exception Fault.Failed _ -> (
      incr flush_failures;
      match Wal.load tmp with
      | reloaded ->
        let r = Wal.records reloaded in
        let n = List.length r in
        if r <> List.filteri (fun i _ -> i < n) final_records then
          viol [] "flush" "failed flush left a non-prefix on disk"
      | exception exn ->
        viol [] "flush"
          (Printf.sprintf "failed flush left an unloadable file: %s"
             (Printexc.to_string exn))));
    Sys.remove tmp
  end;
  let sites = Fault.counts () in
  let wait_graph =
    if !violations = [] then None
    else
      Some
        (Waitgraph.render_text (Scheduler.wait_graph (Manager.scheduler !mgr)))
  in
  let flight =
    if !violations = [] then None
    else begin
      (* Close the partial window so the dump covers up to the moment
         of failure, then snapshot everything in one artifact. *)
      Timeseries.flush timeseries;
      Some
        (Flight.to_json ~reason:"invariant-violation" ?wait_graph ~timeseries
           ~sim_now:(Manager.now !mgr) ())
    end
  in
  {
    plan;
    crashes = !crashes;
    flush_failures = !flush_failures;
    commits = !commits;
    sites;
    violations = List.rev !violations;
    wait_graph;
    flight;
  }

(* --- seeded schedules and shrinking --- *)

(* Fault-free profiling run: per-site hit counts bound the hit values
   of generated arms, so most arms actually fire. *)
let profile cfg = (run cfg []).sites

let random_plan cfg rng =
  Plan.random rng ~profile:(profile cfg) ~max_arms:cfg.max_arms

(* One seeded schedule: derive a plan from the seed, run it. *)
let check_seed cfg =
  let rng = Rng.make cfg.seed in
  run cfg (random_plan cfg rng)

let violates cfg plan = (run cfg plan).violations <> []

(* Greedy minimization: drop arms while the failure persists, then
   walk each surviving arm's hit count down (halving, then stepping). *)
let shrink cfg plan =
  if not (violates cfg plan) then plan
  else begin
    let rec drop plan =
      let rec try_at i =
        if i >= List.length plan then None
        else
          let candidate = List.filteri (fun j _ -> j <> i) plan in
          if violates cfg candidate then Some candidate else try_at (i + 1)
      in
      match try_at 0 with
      | Some smaller -> drop smaller
      | None -> plan
    in
    let plan = ref (drop plan) in
    for i = 0 to List.length !plan - 1 do
      let with_hit h =
        List.mapi
          (fun j (a : Plan.arm) -> if j = i then { a with hit = h } else a)
          !plan
      in
      let shrinking = ref true in
      while !shrinking do
        let h = (List.nth !plan i).Plan.hit in
        if h <= 1 then shrinking := false
        else begin
          let candidates =
            List.filter (fun h' -> h' >= 1 && h' < h) [ h / 2; h - 1 ]
          in
          match List.find_opt (fun h' -> violates cfg (with_hit h')) candidates with
          | Some h' -> plan := with_hit h'
          | None -> shrinking := false
        end
      done
    done;
    !plan
  end

(* The one-line repro command for a failing (config, plan). *)
let repro cfg plan =
  let flag name v d = if v = d then "" else Printf.sprintf " --%s %d" name v in
  Printf.sprintf "entsim --seed %d%s%s%s%s%s%s%s%s%s --plan '%s'" cfg.seed
    (flag "pairs" cfg.pairs default.pairs)
    (flag "rollback-pairs" cfg.rollback_pairs default.rollback_pairs)
    (flag "plain" cfg.plain default.plain)
    (flag "lonely" cfg.lonely default.lonely)
    (flag "users" cfg.users default.users)
    (flag "cities" cfg.cities default.cities)
    (if cfg.break_group_commit then " --break-group-commit" else "")
    (if cfg.isolation = default.isolation then ""
     else " --isolation " ^ cfg.isolation)
    (flag "timeline" cfg.timeline default.timeline)
    (Plan.to_string plan)

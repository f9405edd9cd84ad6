(* Benchmark harness: regenerates every figure of the paper's
   evaluation (Figure 6 a/b/c), plus ablations over the execution
   model's design choices.

   Times are simulated seconds (see DESIGN.md §2.3): the shapes — who
   wins, scaling trends, crossovers — are the reproduction target, not
   absolute numbers. Wall-clock time per layer is the ledger's job
   (ledger/).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig6a fig6c   # some experiments
     BENCH_TXNS=10000 dune exec bench/main.exe # paper-scale run

   With --metrics [FILE.json] (or --metrics-out FILE.json), the Figure
   6 experiments additionally write machine-readable BENCH_fig6{a,b,c}
   .json documents (series plus a per-cell Obs snapshot and latency
   attribution; schema in EXPERIMENTS.md / Ent_obs.Schema) and a final
   Obs snapshot goes to FILE.json (default metrics.json, which is
   gitignored). With --trace-out FILE.json, a dedicated Entangled-T
   cell runs with event logging on and its Perfetto trace is written
   to FILE.json. "validate FILE..." checks BENCH_*.json and trace
   documents against the schema and exits nonzero on the first
   violation — CI's bench-smoke gate. "perfgate BENCH_*.json..." runs
   the gates of gate.ml that each document's "figure" selects (Figure
   6 series against the committed baselines in test/fixtures, scale-up
   at 4 domains against 1, SI against 2PL) and exits nonzero if any
   fails — CI's perf gate. With --certify, every figure cell runs
   under an online schedule certifier (Ent_schedule.Certify) and any
   violation fails the run.

   --parallel N runs the scale-up experiment: wall-clock time of the
   same workloads on an OCaml-5 domain pool of 1, 2, ..., N domains
   (N up to 16 in the nightly sweep), each point carrying its
   coordination_share, written to BENCH_scaleup.json with --metrics. *)

open Ent_core
open Ent_workload
module Obs = Ent_obs.Obs
module Json = Ent_obs.Json
module Event = Ent_obs.Event
module Attrib = Ent_obs.Attrib

let txns_total =
  match Sys.getenv_opt "BENCH_TXNS" with
  | Some s -> (try int_of_string s with _ -> 2000)
  | None -> 2000

(* --- machine-readable results --- *)

let metrics_enabled = ref false
let metrics_path = ref "metrics.json"

(* --slo FILE: evaluate the specs online while each cell runs. Every
   cell gets a fresh monitor watching a fresh series (a series never
   spans an Obs.reset), which the cell's scheduler samples, and its
   verdict lands in the cell's point under "slo" — a member that is
   simply absent when --slo was not given, so default bench documents
   stay byte-identical. *)
let slo_specs : Ent_obs.Slo.spec list option ref = ref None
let slo_failures = ref 0

(* Run one benchmark cell against a clean registry (Obs.reset also
   clears the event log) so the attached snapshot and latency
   attribution measure this cell only. [f] puts the series it is given
   in its scheduler's config. *)
let cell_metrics f =
  Obs.reset ();
  let monitored =
    Option.map
      (fun specs ->
        let mon = Ent_obs.Slo.create specs in
        let on_window = Ent_obs.Slo.observe mon in
        (mon, Ent_obs.Timeseries.create ~on_window ()))
      !slo_specs
  in
  let v = f (Option.map snd monitored) in
  let slo =
    match monitored with
    | None -> Json.Null
    | Some (mon, series) ->
      Ent_obs.Timeseries.flush series;
      if not (Ent_obs.Slo.ok mon) then incr slo_failures;
      Ent_obs.Slo.report_json mon
  in
  let attrib =
    if Event.logging () then Attrib.to_json (Event.events ()) else Json.Null
  in
  (v, Obs.snapshot_json (), attrib, slo)

let point ?(extra = []) ~x (time, snap, attrib, slo) =
  Json.Obj
    ([ ("x", Json.Int x); ("time_s", Json.Float time) ]
    @ extra
    @ [ ("metrics", snap) ]
    @ (match attrib with
      | Json.Null -> []
      | a -> [ ("latency_attribution", a) ])
    @ match slo with
      | Json.Null -> []
      | s -> [ ("slo", s) ])

let bench_doc ~figure ~x_label ~unit series =
  Json.Obj
    [
      ("schema_version", Json.Int Ent_obs.Schema.version);
      ("figure", Json.Str figure);
      ("bench_txns", Json.Int txns_total);
      ("x_label", Json.Str x_label);
      ("unit", Json.Str unit);
      ( "series",
        Json.List
          (List.map
             (fun (name, points) ->
               Json.Obj
                 [ ("name", Json.Str name); ("points", Json.List (List.rev !points)) ])
             series) );
    ]

let write_doc ?(unit = "simulated_seconds") ~figure ~x_label series =
  if !metrics_enabled then begin
    let path = Printf.sprintf "BENCH_%s.json" figure in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string (bench_doc ~figure ~x_label ~unit series));
        output_char oc '\n');
    Printf.printf "wrote %s\n%!" path
  end

let world_users = 500
let world_cities = 12

(* --- online schedule certification (--certify) ---

   Each figure cell gets its own certifier attached beside any other
   observers; a violation is printed immediately and turns the whole
   bench run's exit code nonzero. The ablations are exempt: weakening
   isolation on purpose produces anomalies. *)

let certify_enabled = ref false
let certify_failures = ref 0

let attach_certifier manager =
  if not !certify_enabled then None
  else begin
    let c = Ent_schedule.Certify.create () in
    Manager.observe manager
      ~on_event:(Ent_schedule.Certify.on_engine_event c)
      ~on_entangle:(Ent_schedule.Certify.on_entangle c);
    Some c
  end

let finish_certifier ~label = function
  | None -> ()
  | Some c ->
    if not (Ent_schedule.Certify.ok c) then begin
      incr certify_failures;
      Printf.eprintf "CERTIFY FAILURE (%s): %s\n%!" label
        (Format.asprintf "%a" Ent_schedule.Certify.pp_report c)
    end

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* --- Figure 6(a): time vs concurrent connections, six workloads --- *)

let run_workload ~timeseries ~connections ~frequency ~transactional kind ~n =
  let config =
    {
      Scheduler.default_config with
      connections;
      trigger = Scheduler.Every_arrivals frequency;
      timeseries;
    }
  in
  let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
  let kind_name =
    match kind with
    | Gen.No_social -> "nosocial"
    | Gen.Social -> "social"
    | Gen.Entangled -> "entangled"
  in
  let certifier = attach_certifier world.manager in
  let programs = Gen.batch world ~transactional kind ~n ~tag_base:0 in
  let ids = List.map (Manager.submit world.manager) programs in
  Manager.drain world.manager;
  let committed =
    List.length
      (List.filter
         (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
         ids)
  in
  if committed <> n then
    Printf.eprintf "WARNING: %d/%d committed (%s)\n%!" committed n kind_name;
  finish_certifier
    ~label:
      (Printf.sprintf "%s-%s c=%d" kind_name
         (if transactional then "t" else "q")
         connections)
    certifier;
  Manager.now world.manager

let fig6a_workloads =
  [ ("NoSocial-T", (true, Gen.No_social));
    ("Social-T", (true, Gen.Social));
    ("Entangled-T", (true, Gen.Entangled));
    ("NoSocial-Q", (false, Gen.No_social));
    ("Social-Q", (false, Gen.Social));
    ("Entangled-Q", (false, Gen.Entangled)) ]

let fig6a () =
  heading
    (Printf.sprintf
       "Figure 6(a): total time (simulated s) vs concurrent connections\n\
        %d transactions per cell, run frequency 100" txns_total);
  Printf.printf "%8s %12s %12s %12s %12s %12s %12s\n" "conns" "NoSocial-T"
    "Social-T" "Entangled-T" "NoSocial-Q" "Social-Q" "Entangled-Q";
  let series = List.map (fun (name, _) -> (name, ref [])) fig6a_workloads in
  List.iter
    (fun connections ->
      Printf.printf "%8d" connections;
      List.iter
        (fun (name, (transactional, kind)) ->
          let cell =
            cell_metrics (fun timeseries ->
                run_workload ~timeseries ~connections ~frequency:100
                  ~transactional kind ~n:txns_total)
          in
          let points = List.assoc name series in
          points := point ~x:connections cell :: !points;
          Printf.printf " %12.2f%!" (let t, _, _, _ = cell in t))
        fig6a_workloads;
      Printf.printf "\n%!")
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  write_doc ~figure:"fig6a" ~x_label:"connections" series

(* --- 2PL vs SI: time vs connections, Social-T plus parked readers ---

   In the run-based execution model, plain transactions execute to
   completion inside a run, so their locks never block anyone; read
   locks only hurt when a transaction {e parks} mid-coordination and
   keeps them across a run boundary (§4). This sweep reproduces that
   case: most transactions are plain Social-T writers (each books a
   row in Reserve), and a fraction are entangled readers that scan
   Reserve — no index, hence a table-S lock — and then coordinate
   with a partner who only arrives in the {e next} block of arrivals.
   Under Strict 2PL every parked reader holds its table-S across the
   run boundary, so the writers behind it block, are aborted at the
   end of the run, and re-execute later (the paper's repool path).
   Snapshot readers take no read locks at all — same begin-stamp
   version-chain reads, write sets validated at commit — so the same
   stream runs without a single repool. Both series run the identical
   program stream; only the per-transaction isolation level differs.
   Runs only when named explicitly ("si"): the default sweep stays
   identical to the pre-MVCC harness. *)

let si_workloads =
  [ ("Social-T 2pl", `All_2pl);
    ("Social-T si", `All_si);
    ("Social-T mixed", `Mixed) ]

(* si_aborts of the most recent cell (the scheduler stat is not an Obs
   counter, so deterministic 2PL snapshots stay unchanged) *)
let last_si_aborts = ref 0

let retag_isolation level (programs : Program.t list) =
  let snap (p : Program.t) =
    Program.make ~label:p.label ~transactional:p.transactional
      ~isolation:Ent_txn.Engine.Snapshot p.ast
  in
  match level with
  | `All_2pl -> programs
  | `All_si -> List.map snap programs
  | `Mixed -> List.mapi (fun i p -> if i land 1 = 1 then snap p else p) programs

(* One parked reader: a full scan of the reservation list (a
   table-level S lock under 2PL — a predicated read would go through
   the lookup path and lock only the matching rows), then coordinate
   with [partner]. It writes nothing, so the pair never self-conflicts
   on its own read lock. *)
let si_reader world ~uid ~partner ~tag =
  Program.of_string ~label:(Printf.sprintf "si-reader-%d-%d" uid tag)
    (Printf.sprintf
       "BEGIN TRANSACTION;\n\
        SELECT fid FROM Reserve;\n\
        SELECT %d, %d, dst AS @destination INTO ANSWER Meet\n\
        WHERE (dst) IN (SELECT destination FROM Flight WHERE source='%s')\n\
        AND (%d, %d, dst) IN ANSWER Meet\n\
        CHOOSE 1;\n\
        COMMIT;"
       uid tag (Travel.hometown world uid) partner tag)

(* The partner half: coordination only, no data read. If the closer
   also scanned Reserve, its table-S would queue FIFO behind the
   blocked writers' IX requests and never be granted — the opener
   would stay unanswered and the whole 2PL pool would livelock. *)
let si_closer world ~uid ~partner ~tag =
  Program.of_string ~label:(Printf.sprintf "si-closer-%d-%d" uid tag)
    (Printf.sprintf
       "BEGIN TRANSACTION;\n\
        SELECT %d, %d, dst AS @destination INTO ANSWER Meet\n\
        WHERE (dst) IN (SELECT destination FROM Flight WHERE source='%s')\n\
        AND (%d, %d, dst) IN ANSWER Meet\n\
        CHOOSE 1;\n\
        COMMIT;"
       uid tag (Travel.hometown world uid) partner tag)

(* The submission stream, in blocks of [frequency] arrivals (one run
   each): every block first closes the reader pairs opened by the
   previous block, opens new ones (only when the next block has room to
   close them), and fills the rest with plain Social-T writers. The
   openers park at the coordination barrier, so under 2PL their
   Reserve table-S blocks every writer behind them until the end of the
   run — abort and repool, the cost 2PL pays and SI does not. *)
let si_stream world ~frequency ~n =
  let readers_per_block = max 1 (frequency / 8) in
  let programs = ref [] in
  let emitted = ref 0 in
  let pair = ref 0 in
  let pending = Queue.create () in
  let push p =
    programs := p :: !programs;
    incr emitted
  in
  while !emitted < n do
    let block_end = min n (!emitted + frequency) in
    while (not (Queue.is_empty pending)) && !emitted < block_end do
      let uid, partner, tag = Queue.pop pending in
      push (si_closer world ~uid ~partner ~tag)
    done;
    if n - block_end >= readers_per_block then
      for _ = 1 to readers_per_block do
        if !emitted < block_end then begin
          let a = 2 * !pair mod world_users
          and b = (2 * !pair + 1) mod world_users in
          let tag = 1_000_000 + !pair in
          incr pair;
          Queue.add (b, a, tag) pending;
          push (si_reader world ~uid:a ~partner:b ~tag)
        end
      done;
    while !emitted < block_end do
      let i = !emitted in
      push
        (Gen.program world ~transactional:true Gen.Social
           ~uid:(i * 13 mod world_users) ~partner:(-1) ~tag:i)
    done
  done;
  List.rev !programs

let run_workload_si ~timeseries ~connections ~frequency ~level ~n =
  let config =
    {
      Scheduler.default_config with
      connections;
      trigger = Scheduler.Every_arrivals frequency;
      timeseries;
    }
  in
  let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
  let certifier = attach_certifier world.manager in
  let programs = retag_isolation level (si_stream world ~frequency ~n) in
  let ids = List.map (Manager.submit world.manager) programs in
  Manager.drain world.manager;
  let committed =
    List.length
      (List.filter
         (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
         ids)
  in
  let level_name =
    match level with
    | `All_2pl -> "2pl"
    | `All_si -> "si"
    | `Mixed -> "mixed"
  in
  if committed <> n then
    Printf.eprintf "WARNING: %d/%d committed (social-t %s c=%d)\n%!" committed n
      level_name connections;
  finish_certifier
    ~label:(Printf.sprintf "social-t-%s c=%d" level_name connections)
    certifier;
  last_si_aborts := (Manager.stats world.manager).si_aborts;
  Manager.now world.manager

let si_experiment () =
  heading
    (Printf.sprintf
       "2PL vs SI: total time (simulated s) vs concurrent connections\n\
        Social-T writers + parked entangled readers, %d transactions per \
        cell, run frequency 100"
       txns_total);
  Printf.printf "%8s %14s %14s %14s %10s\n" "conns" "Social-T 2pl"
    "Social-T si" "Social-T mixed" "si aborts";
  let series = List.map (fun (name, _) -> (name, ref [])) si_workloads in
  List.iter
    (fun connections ->
      Printf.printf "%8d" connections;
      let si_aborts = ref 0 in
      List.iter
        (fun (name, level) ->
          let cell =
            cell_metrics (fun timeseries ->
                run_workload_si ~timeseries ~connections ~frequency:100 ~level
                  ~n:txns_total)
          in
          si_aborts := !si_aborts + !last_si_aborts;
          let points = List.assoc name series in
          points := point ~x:connections cell :: !points;
          Printf.printf " %14.2f%!" (let t, _, _, _ = cell in t))
        si_workloads;
      Printf.printf " %10d\n%!" !si_aborts)
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  write_doc ~figure:"si" ~x_label:"connections" series

(* --- Figure 6(b): time vs pending transactions, per run frequency --- *)

let run_pending ~timeseries ~p ~frequency ~n =
  let config =
    {
      Scheduler.default_config with
      connections = 100;
      trigger = Scheduler.Every_arrivals frequency;
      timeseries;
    }
  in
  let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
  let certifier = attach_certifier world.manager in
  (* p transactions whose partners never arrive sit in the pool and are
     re-attempted at the start of every subsequent run *)
  let lonely_ids =
    List.map (Manager.submit world.manager) (Gen.lonely world ~n:p ~tag_base:1_000_000)
  in
  let ids =
    List.map (Manager.submit world.manager)
      (Gen.batch world ~transactional:true Gen.Entangled ~n ~tag_base:0)
  in
  Manager.drain world.manager;
  let committed =
    List.length
      (List.filter
         (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
         ids)
  in
  if committed <> n then Printf.eprintf "WARNING: %d/%d committed (p=%d)\n%!" committed n p;
  ignore lonely_ids;
  finish_certifier ~label:(Printf.sprintf "pending p=%d f=%d" p frequency)
    certifier;
  Manager.now world.manager

let fig6b () =
  let n = txns_total in
  heading
    (Printf.sprintf
       "Figure 6(b): total time (simulated s) vs pending transactions p\n\
        %d entangled transactions per cell" n);
  Printf.printf "%8s %12s %12s %12s\n" "p" "f=1" "f=10" "f=50";
  let frequencies = [ 1; 10; 50 ] in
  let series =
    List.map (fun f -> (Printf.sprintf "f=%d" f, ref [])) frequencies
  in
  List.iter
    (fun p ->
      Printf.printf "%8d" p;
      List.iter
        (fun frequency ->
          let cell =
            cell_metrics (fun timeseries ->
                run_pending ~timeseries ~p ~frequency ~n)
          in
          let points = List.assoc (Printf.sprintf "f=%d" frequency) series in
          points := point ~x:p cell :: !points;
          Printf.printf " %12.2f%!" (let t, _, _, _ = cell in t))
        frequencies;
      Printf.printf "\n%!")
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
  write_doc ~figure:"fig6b" ~x_label:"pending" series

(* --- Figure 6(c): time vs coordinating-set size, per structure --- *)

let run_structured ~timeseries ~structure ~set_size ~frequency ~total_txns =
  let config =
    {
      Scheduler.default_config with
      connections = 100;
      trigger = Scheduler.Every_arrivals frequency;
      timeseries;
    }
  in
  let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
  let certifier = attach_certifier world.manager in
  let n_structures = max 1 (total_txns / set_size) in
  let all_ids = ref [] in
  for k = 0 to n_structures - 1 do
    let programs =
      match structure with
      | `Spoke_hub -> Gen.spoke_hub world ~set_size ~tag_base:(k * 100)
      | `Cycle -> Gen.cycle world ~set_size ~tag_base:(k * 100)
    in
    List.iter
      (fun p -> all_ids := Manager.submit world.manager p :: !all_ids)
      programs
  done;
  Manager.drain world.manager;
  let committed =
    List.length
      (List.filter
         (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
         !all_ids)
  in
  let expected = List.length !all_ids in
  if committed <> expected then
    Printf.eprintf "WARNING: %d/%d committed (%s size %d f %d)\n%!" committed
      expected
      (match structure with
      | `Spoke_hub -> "spoke-hub"
      | `Cycle -> "cycle")
      set_size frequency;
  finish_certifier
    ~label:
      (Printf.sprintf "%s size=%d f=%d"
         (match structure with
         | `Spoke_hub -> "spoke-hub"
         | `Cycle -> "cycle")
         set_size frequency)
    certifier;
  Manager.now world.manager

let fig6c () =
  let total = max 200 (txns_total / 5) in
  heading
    (Printf.sprintf
       "Figure 6(c): total time (simulated s) vs size of coordinating set\n\
        ~%d transactions per cell" total);
  Printf.printf "%8s %16s %16s %16s %16s\n" "size" "Spoke-hub f=10"
    "Spoke-hub f=50" "Cycle f=10" "Cycle f=50";
  let cells =
    [ ("Spoke-hub f=10", (`Spoke_hub, 10)); ("Spoke-hub f=50", (`Spoke_hub, 50));
      ("Cycle f=10", (`Cycle, 10)); ("Cycle f=50", (`Cycle, 50)) ]
  in
  let series = List.map (fun (name, _) -> (name, ref [])) cells in
  List.iter
    (fun set_size ->
      Printf.printf "%8d" set_size;
      List.iter
        (fun (name, (structure, frequency)) ->
          let cell =
            cell_metrics (fun timeseries ->
                run_structured ~timeseries ~structure ~set_size ~frequency
                  ~total_txns:total)
          in
          let points = List.assoc name series in
          points := point ~x:set_size cell :: !points;
          Printf.printf " %16.2f%!" (let t, _, _, _ = cell in t))
        cells;
      Printf.printf "\n%!")
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  write_doc ~figure:"fig6c" ~x_label:"set_size" series

(* --- Scale-up: wall-clock time vs OCaml domains (--parallel) ---

   Unlike the Figure 6 sweeps, this experiment measures real elapsed
   time: each cell runs the scheduler with an [Ent_par.Pool] of
   [domains] domains (1 domain = the deterministic single-domain
   scheduler) and reports wall-clock seconds for the whole
   submit-and-drain, plus the coordination share — the fraction of the
   cell's wall time spent in the grounding+coordination phase
   ([Scheduler.stats.coord_wall_s]). CI's scaleup job gates the
   NoSocial-T and Entangled-T series with perfgate (gate.ml,
   DESIGN.md §9, EXPERIMENTS.md). *)

let parallel_domains = ref 0

let scaleup_workloads =
  [ ("NoSocial-T", (true, Gen.No_social));
    ("Social-T", (true, Gen.Social));
    ("Entangled-T", (true, Gen.Entangled)) ]

(* Domain counts 1, 2, 4, ... up to the --parallel bound (default 4). *)
let scaleup_domain_counts () =
  let bound = if !parallel_domains > 0 then !parallel_domains else 4 in
  let rec up d = if d >= bound then [ bound ] else d :: up (2 * d) in
  up 1

let run_scaleup ~timeseries ~domains ~transactional kind ~n =
  let runner = if domains > 1 then Some (Ent_par.Pool.create ~domains) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Ent_par.Pool.shutdown runner)
    (fun () ->
      let config =
        {
          Scheduler.default_config with
          connections = 100;
          trigger = Scheduler.Every_arrivals 100;
          runner;
          timeseries;
        }
      in
      let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
      let kind_name =
        match kind with
        | Gen.No_social -> "nosocial"
        | Gen.Social -> "social"
        | Gen.Entangled -> "entangled"
      in
      let certifier = attach_certifier world.manager in
      let programs = Gen.batch world ~transactional kind ~n ~tag_base:0 in
      let t0 = Ent_obs.Clock.monotonic () in
      let ids = List.map (Manager.submit world.manager) programs in
      Manager.drain world.manager;
      let wall = Ent_obs.Clock.monotonic () -. t0 in
      let stats = Scheduler.stats (Manager.scheduler world.manager) in
      let coord_share =
        if wall > 0.0 then
          Float.max 0.0 (Float.min 1.0 (stats.coord_wall_s /. wall))
        else 0.0
      in
      let committed =
        List.length
          (List.filter
             (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
             ids)
      in
      if committed <> n then
        Printf.eprintf "WARNING: %d/%d committed (%s d=%d)\n%!" committed n
          kind_name domains;
      finish_certifier
        ~label:
          (Printf.sprintf "%s-%s d=%d" kind_name
             (if transactional then "t" else "q")
             domains)
        certifier;
      (wall, coord_share))

let scaleup () =
  let n = txns_total in
  heading
    (Printf.sprintf
       "Scale-up: wall-clock seconds vs OCaml domains\n\
        %d transactions per cell, 100 connections, run frequency 100" n);
  (* Event logging serializes every emission on the ring mutex, which
     would distort a wall-clock scaling measurement; scale-up points
     carry the per-cell Obs snapshot but no latency attribution. *)
  let was_logging = Event.logging () in
  Event.set_logging false;
  Printf.printf "%8s %12s %12s %12s\n" "domains" "NoSocial-T" "Social-T"
    "Entangled-T";
  let series = List.map (fun (name, _) -> (name, ref [])) scaleup_workloads in
  let baselines = Hashtbl.create 4 in
  let shares = Hashtbl.create 16 in
  let counts = scaleup_domain_counts () in
  List.iter
    (fun domains ->
      Printf.printf "%8d" domains;
      List.iter
        (fun (name, (transactional, kind)) ->
          let (t, share), snap, attrib, slo =
            cell_metrics (fun timeseries ->
                run_scaleup ~timeseries ~domains ~transactional kind ~n)
          in
          let points = List.assoc name series in
          points :=
            point ~x:domains
              ~extra:[ ("coordination_share", Json.Float share) ]
              (t, snap, attrib, slo)
            :: !points;
          if domains = 1 then Hashtbl.replace baselines name t;
          Hashtbl.replace shares (name, domains) share;
          Printf.printf " %11.3f%!" t)
        scaleup_workloads;
      Printf.printf "\n%!")
    counts;
  let top = List.fold_left max 1 counts in
  if top > 1 then begin
    Printf.printf "%8s" "speedup";
    List.iter
      (fun (name, points) ->
        let t1 = Hashtbl.find baselines name in
        let t_top =
          List.find_map
            (fun p ->
              match (Json.member "x" p, Json.member "time_s" p) with
              | Some (Json.Int x), Some t when x = top -> Json.to_float_opt t
              | _ -> None)
            !points
        in
        match t_top with
        | Some t -> Printf.printf " %10.2fx%!" (t1 /. t)
        | None -> Printf.printf " %11s%!" "-")
      series;
    Printf.printf "   (1 -> %d domains)\n%!" top
  end;
  (* Coordination share of each cell's wall time (the full series is
     the per-point coordination_share member in BENCH_scaleup.json). *)
  Printf.printf "%8s" "c-share";
  List.iter
    (fun (name, _) ->
      match Hashtbl.find_opt shares (name, top) with
      | Some s -> Printf.printf " %10.1f%%%!" (100.0 *. s)
      | None -> Printf.printf " %11s%!" "-")
    scaleup_workloads;
  Printf.printf "   (at %d domains)\n%!" top;
  Event.set_logging was_logging;
  write_doc ~unit:"wall_clock_seconds" ~figure:"scaleup" ~x_label:"domains"
    series

(* --- Ablations over the design choices of §4 --- *)

let ablation_isolation () =
  heading
    "Ablation: isolation mechanisms (entangled workload, 100 connections)\n\
     time + anomaly exposure per isolation level; one partner in twenty\n\
     rolls back after coordinating";
  let n = max 200 (txns_total / 5) in
  Printf.printf "%22s %12s %10s   %s\n" "isolation" "time (s)" "commits" "anomalies observed";
  List.iter
    (fun (name, isolation) ->
      let config =
        {
          Scheduler.default_config with
          connections = 100;
          isolation;
          trigger = Scheduler.Every_arrivals 20;
        }
      in
      let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
      let recorder = Ent_schedule.Recorder.create () in
      Manager.observe world.manager
        ~on_event:(Ent_schedule.Recorder.on_engine_event recorder)
        ~on_entangle:(Ent_schedule.Recorder.on_entangle recorder);
      let programs = Gen.batch world ~transactional:true Gen.Entangled ~n ~tag_base:0 in
      let programs =
        List.mapi
          (fun i (p : Program.t) ->
            if i mod 20 = 1 then
              (* partner variant that rolls back after coordinating *)
              let ast : Ent_sql.Ast.program =
                { p.ast with
                  body =
                    List.filteri (fun j _ -> j < 2) p.ast.body
                    @ [ (Ent_sql.Ast.Rollback, Ent_sql.Ast.no_pos) ] }
              in
              Program.make ~label:(p.label ^ "-abort") ast
            else p)
          programs
      in
      let ids = List.map (Manager.submit world.manager) programs in
      Manager.drain world.manager;
      let commits =
        List.length
          (List.filter
             (fun id -> Manager.outcome world.manager id = Some Scheduler.Committed)
             ids)
      in
      let codes =
        List.map
          (fun (v : Ent_schedule.Certify.violation) -> v.code)
          (Ent_schedule.Certify.violations
             (Ent_schedule.Certify.replay
                (Ent_schedule.Recorder.completed_history recorder)))
      in
      let anomalies =
        match
          List.filter (fun c -> List.mem c codes)
            [ "conflict-cycle"; "read-from-aborted"; "widowed";
              "unrepeatable-quasi-read" ]
        with
        | [] -> "none"
        | shown -> String.concat ", " shown
      in
      Printf.printf "%22s %12.2f %10d   %s\n%!" name
        (Manager.now world.manager) commits anomalies)
    [ ("full", Isolation.full);
      ("no-group-commit", Isolation.no_group_commit);
      ("no-grounding-locks", Isolation.no_grounding_locks);
      ("read-uncommitted", Isolation.read_uncommitted) ]

let ablation_run_frequency () =
  heading
    "Ablation: run frequency on a fully-paired entangled workload\n\
     (complements Figure 6(b): without pending transactions, higher\n\
     frequency costs little)";
  let n = max 200 (txns_total / 5) in
  Printf.printf "%8s %12s %8s\n" "f" "time (s)" "runs";
  List.iter
    (fun frequency ->
      let config =
        {
          Scheduler.default_config with
          connections = 100;
          trigger = Scheduler.Every_arrivals frequency;
        }
      in
      let world = Travel.build ~users:world_users ~cities:world_cities ~config () in
      let ids =
        List.map (Manager.submit world.manager)
          (Gen.batch world ~transactional:true Gen.Entangled ~n ~tag_base:0)
      in
      Manager.drain world.manager;
      ignore ids;
      let s = Manager.stats world.manager in
      Printf.printf "%8d %12.2f %8d\n%!" frequency
        (Manager.now world.manager) s.runs)
    [ 1; 2; 5; 10; 20; 50 ]

let ablation_coordination_search () =
  heading
    "Ablation: coordination cost vs number of concurrent pairs\n\
     (wall-clock microseconds per call on the same entries: goal-driven\n\
     search, Coordinate, vs combined-query compilation [6], Combined)";
  let cat = Ent_storage.Catalog.create () in
  let flights =
    Ent_storage.Catalog.create_table cat "Flights"
      (Ent_storage.Schema.make
         [ { name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ])
  in
  for i = 1 to 10 do
    ignore
      (Ent_storage.Table.insert flights
         [| Ent_storage.Value.Int i; Ent_storage.Value.Str "LA" |])
  done;
  let access = Ent_sql.Eval.direct_access cat in
  let env = Ent_sql.Eval.fresh_env () in
  let query me partner =
    let src =
      Printf.sprintf
        "SELECT '%s', fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
         Flights WHERE dest='LA') AND ('%s', fno) IN ANSWER R CHOOSE 1"
        me partner
    in
    match Ent_sql.Parser.parse_stmt src with
    | Ent_sql.Ast.Entangled e -> Ent_entangle.Translate.of_ast ~env e
    | _ -> assert false
  in
  let us_per_call evaluate entries =
    let iters = 50 in
    let t0 = Ent_obs.Clock.monotonic () in
    for _ = 1 to iters do
      ignore (evaluate entries)
    done;
    1e6 *. (Ent_obs.Clock.monotonic () -. t0) /. float_of_int iters
  in
  Printf.printf "%8s %16s %16s\n" "pairs" "search us/call" "combined us/call";
  List.iter
    (fun pairs ->
      let entries =
        List.concat
          (List.init pairs (fun k ->
               let a = Printf.sprintf "u%da" k and b = Printf.sprintf "u%db" k in
               let qa = query a b and qb = query b a in
               [ (2 * k, qa, Ent_entangle.Ground.compute ~access ~env qa);
                 ((2 * k) + 1, qb, Ent_entangle.Ground.compute ~access ~env qb) ]))
      in
      let search = us_per_call Ent_entangle.Coordinate.evaluate entries in
      let combined = us_per_call Ent_entangle.Combined.evaluate entries in
      Printf.printf "%8d %16.1f %16.1f\n%!" pairs search combined)
    [ 1; 5; 10; 25; 50; 100 ]

(* --- perf gate: the table and evaluator are in gate.ml --- *)

let load_json path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Json.of_string (In_channel.input_all ic))

let perfgate files =
  let ok =
    List.fold_left
      (fun ok file ->
        match
          Gate.check
            ~baseline:(fun fig -> load_json (Gate.baseline_path fig))
            (load_json file)
        with
        | [] ->
          Printf.eprintf "perfgate: %s: no gate applies to this document\n%!" file;
          false
        | verdicts ->
          List.iter (fun v -> Printf.printf "%s\n%!" (Gate.describe v)) verdicts;
          ok && List.for_all Gate.passed verdicts
        | exception (Sys_error msg | Json.Parse_error msg) ->
          Printf.eprintf "perfgate: %s: %s\n%!" file msg;
          false)
      true files
  in
  exit (if ok then 0 else 1)

let validate files =
  let ok =
    List.fold_left
      (fun ok file ->
        match Ent_obs.Schema.validate_file file with
        | Ok () ->
          Printf.printf "%s: ok\n%!" file;
          ok
        | Error errs ->
          List.iter (fun e -> Printf.eprintf "%s: %s\n%!" file e) errs;
          false
        | exception Sys_error msg ->
          Printf.eprintf "%s\n%!" msg;
          false)
      true files
  in
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "validate" :: files ->
    if files = [] then begin
      prerr_endline "usage: main.exe validate BENCH_*.json...";
      exit 2
    end;
    validate files
  | _ :: "perfgate" :: files ->
    if files = [] then begin
      prerr_endline "usage: main.exe perfgate BENCH_*.json...";
      exit 2
    end;
    perfgate files
  | _ :: args ->
    let selected = ref [] in
    let trace_out = ref None in
    let rec parse = function
      | [] -> ()
      | "--metrics" :: rest ->
        metrics_enabled := true;
        (match rest with
        | path :: rest' when Filename.check_suffix path ".json" ->
          metrics_path := path;
          parse rest'
        | _ -> parse rest)
      | "--metrics-out" :: path :: rest ->
        metrics_enabled := true;
        metrics_path := path;
        parse rest
      | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        parse rest
      | "--certify" :: rest ->
        certify_enabled := true;
        parse rest
      | "--slo" :: path :: rest -> (
        match Ent_obs.Slo.load path with
        | Ok specs ->
          slo_specs := Some specs;
          parse rest
        | Error msg ->
          Printf.eprintf "bad --slo file %s: %s\n" path msg;
          exit 2)
      | "--parallel" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
          parallel_domains := d;
          parse rest
        | _ ->
          prerr_endline "--parallel expects a positive domain count";
          exit 2)
      | name :: rest ->
        selected := name :: !selected;
        parse rest
    in
    parse args;
    (* --parallel N with no experiment names means "measure scale-up":
       the scale-up sweep is the only experiment the domain pool
       affects, so do not drag a full figure sweep along with it. *)
    if !parallel_domains > 0 && !selected = [] then selected := [ "scaleup" ];
    let run name f =
      if !selected = [] || List.mem name !selected then f ()
    in
    if !metrics_enabled then begin
      (* Size the ring so a whole cell's events fit: attribution only
         covers tasks whose full timeline survived (≈160 events per
         transaction with WAL logging on). *)
      Event.set_capacity (min 2_097_152 (max 262_144 (txns_total * 160)));
      Event.set_logging true
    end;
    Printf.printf "entangled-transactions benchmark harness (BENCH_TXNS=%d)\n"
      txns_total;
    Option.iter
      (fun path ->
        heading "Perfetto trace capture (Entangled-T, 100 connections)";
        let was_logging = Event.logging () in
        Event.set_logging true;
        Event.reset ();
        ignore
          (run_workload ~timeseries:None ~connections:100 ~frequency:100
             ~transactional:true Gen.Entangled ~n:(min txns_total 200));
        Ent_obs.Trace.write path (Event.events ());
        Printf.printf "wrote %s (Perfetto / chrome://tracing)\n%!" path;
        Event.reset ();
        Event.set_logging was_logging)
      !trace_out;
    run "fig6a" fig6a;
    (* explicit-only: the default sweep stays identical to pre-MVCC *)
    if List.mem "si" !selected then si_experiment ();
    run "fig6b" fig6b;
    run "fig6c" fig6c;
    run "scaleup" scaleup;
    run "ablation-isolation" ablation_isolation;
    run "ablation-frequency" ablation_run_frequency;
    run "ablation-search" ablation_coordination_search;
    if !metrics_enabled then begin
      Obs.write_snapshot !metrics_path;
      Printf.printf "wrote %s (final-phase Obs snapshot)\n%!" !metrics_path
    end;
    if !slo_specs <> None then
      if !slo_failures = 0 then Printf.printf "slo: all cells ok\n%!"
      else begin
        Printf.printf "slo: %d cell(s) breached\n%!" !slo_failures;
        exit 1
      end;
    if !certify_enabled then
      if !certify_failures = 0 then
        Printf.printf "certify: all cells ok\n%!"
      else begin
        Printf.printf "certify: %d cell(s) FAILED\n%!" !certify_failures;
        exit 1
      end
  | [] -> ()

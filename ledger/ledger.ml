(* Wall-clock ledger: end-to-end and per-layer metrics of the
   entangled-transaction system on five workloads (README.md).

   Usage:
     dune exec ./ledger/ledger.exe                      # every workload
     dune exec ./ledger/ledger.exe -- --workload pending --seconds 10 --trace 0

   Options:
     --workload W   run only W (repeatable; default: all five)
     --seed S       seed of the social graph (default 1; 2 is the holdout)
     --seconds T    keep repeating until T seconds of repetitions ran
     --reps K       at least K repetitions per workload (default 5)
     --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics
                    only (default: both)
     --scale X      multiply every workload's size by X (smoke runs)

   Three passes, each repetition in a fresh child process so that one
   repetition's heap and process-global switches cannot leak into the
   next:
   - check pass: every workload once at 1/10 size with the online
     certifier attached, and once more under the scheduler's own
     [Every_arrivals] trigger, which must give the same simulated time
     as the ledger's manual loop;
   - timed pass: untraced repetitions, workloads taking turns; the
     end-to-end metrics and the layer counts are their medians;
   - traced pass (unless --trace 0): one event-logged repetition after
     each timed one; the layer times are their medians.

   Every metric is printed by name and unit with its median, min and
   max. The last line of standard output is one JSON object with the
   keys [correct], [attempted], [failed] and [metrics] (the medians).
   The exit code is nonzero when a correctness check failed. *)

module Json = Ent_obs.Json

(* Which repetitions a metric's median is taken over. The number of
   repetitions grows with --seconds and with the speed of the code, so
   the reported value must not depend on it the way a minimum would:
   a median of more samples only gets steadier. *)
type source =
  | Timed  (** the untraced repetitions *)
  | Traced  (** the traced repetitions *)
  | Every  (** all repetitions: set-up is the same with the log on or off *)
  | Overhead  (** median traced wall time / median untraced wall time - 1 *)

let end_to_end =
  [
    ("commit_tps", "1/s", Timed);
    ("latency_p50_ms", "ms", Timed);
    ("latency_p90_ms", "ms", Timed);
    ("setup_s", "s", Every);
    ("heap_peak_mb", "MB", Timed);
  ]

let per_layer =
  [
    ("workload.build_s", "s", Traced);
    ("sql.gen_parse_s", "s", Traced);
    ("core.submit_s", "s", Traced);
    ("core.run_s", "s", Traced);
    ("core.step_s", "s", Traced);
    ("core.run_ms_p50", "ms", Traced);
    ("core.run_ms_p90", "ms", Traced);
    ("core.runs", "count", Timed);
    ("core.repool_ratio", "ratio", Timed);
    ("core.widow_preventions", "count", Timed);
    ("core.in_pool_s", "s", Traced);
    ("core.executing_s", "s", Traced);
    ("core.committing_s", "s", Traced);
    ("core.run_tail_s", "s", Traced);
    ("txn.lock_blocked_s", "s", Traced);
    ("txn.lock.requests", "count", Timed);
    ("txn.lock.wait_ratio", "ratio", Timed);
    ("txn.engine.aborts", "count", Timed);
    ("txn.engine.writes_undone", "count", Timed);
    ("txn.engine.begins_per_commit", "ratio", Timed);
    ("txn.si_validations", "count", Timed);
    ("txn.si_aborts", "count", Timed);
    ("txn.wal.appends_per_commit", "ratio", Timed);
    ("entangle.blocked_s", "s", Traced);
    ("entangle.coord_phase_s", "s", Traced);
    ("entangle.coord_share", "ratio", Traced);
    ("entangle.search_s", "s", Traced);
    ("entangle.ground_s", "s", Traced);
    ("entangle.ground.computes", "count", Timed);
    ("entangle.ground.valuations", "count", Timed);
    ("entangle.gcache.hit_ratio", "ratio", Timed);
    ("entangle.gcache.invalidations", "count", Timed);
    ("entangle.coordinate.evaluations", "count", Timed);
    ("entangle.coordinate.nodes_expanded", "count", Timed);
    ("entangle.coordinate.answer_ratio", "ratio", Timed);
    ("storage.rows_read_per_commit", "ratio", Timed);
    ("storage.index.lookups", "count", Timed);
    ("storage.index.missing_lookups", "count", Timed);
    ("storage.table.scans", "count", Timed);
    ("storage.mvcc.versions_gcd", "count", Timed);
    ("par.offload_ratio", "ratio", Traced);
    ("obs.events", "count", Traced);
    ("obs.events_dropped", "count", Traced);
    ("obs.trace_overhead", "ratio", Overhead);
    ("bench.harness_s", "s", Traced);
  ]

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let range xs = (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)

(* --- child processes --- *)

exception Child_failed of string

(* Run one repetition in a fresh process and read its JSON line. *)
let spawn ~(workload : Streams.t) ~mode ~seed ~scale =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--child"; Rep.mode_name mode; "--workload"; workload.name;
       "--seed"; string_of_int seed; "--scale"; Printf.sprintf "%.17g" scale |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let label = Printf.sprintf "%s %s" workload.name (Rep.mode_name mode) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    try Rep.of_json (Json.of_string (String.trim out))
    with Json.Parse_error msg ->
      raise (Child_failed (Printf.sprintf "%s: unreadable result (%s)" label msg)))
  | Unix.WEXITED code ->
    raise (Child_failed (Printf.sprintf "%s: child exited with %d" label code))
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    raise (Child_failed (Printf.sprintf "%s: child killed by signal %d" label s))

(* --- the passes --- *)

type ledger = {
  workload : Streams.t;
  mutable timed : Rep.result list;
  mutable traced : Rep.result list;
  mutable failures : string list;
}

let fail l reason = l.failures <- l.failures @ [ l.workload.name ^ ": " ^ reason ]

let repetition l ~mode ~seed ~scale =
  let r = spawn ~workload:l.workload ~mode ~seed ~scale in
  List.iter (fail l) r.Rep.failures;
  r

let get (r : Rep.result) name = List.assoc name r.metrics

(* At 1/10 size: certified under the manual loop, and again under the
   scheduler's [Every_arrivals] trigger. Returns the simulated time. *)
let check_pass l ~seed ~scale =
  let scale = scale /. 10.0 in
  let manual = get (repetition l ~mode:Rep.Check ~seed ~scale) "sim_s" in
  let auto = get (repetition l ~mode:Rep.Auto ~seed ~scale) "sim_s" in
  if manual <> auto then
    fail l
      (Printf.sprintf "load_model: manual loop sim_s %.6f <> Every_arrivals sim_s %.6f"
         manual auto);
  manual

(* The metric's median, min and max over the repetitions. *)
let summarize l (name, _, source) =
  let of_reps reps =
    let xs = List.map (fun r -> get r name) reps in
    let lo, hi = range xs in
    (median xs, lo, hi)
  in
  match source with
  | Timed -> of_reps l.timed
  | Traced -> of_reps l.traced
  | Every -> of_reps (l.timed @ l.traced)
  | Overhead ->
    let wall reps = median (List.map (fun r -> get r "wall_s") reps) in
    let v = (wall l.traced /. wall l.timed) -. 1.0 in
    (v, v, v)

(* The simulated time and, at 1 domain, every layer count repeat
   exactly from one repetition to the next. *)
let repeat_checks l =
  let differs name reps =
    List.length (List.sort_uniq Float.compare (List.map (fun r -> get r name) reps)) > 1
  in
  if differs "sim_s" (l.timed @ l.traced) then
    fail l "sim_repeat: simulated time differs between repetitions";
  if l.workload.domains = 1 then
    List.iter
      (fun (name, _, stat) ->
        if stat = Timed && differs name l.timed then
          fail l (Printf.sprintf "counts_repeat: %s differs between repetitions" name))
      per_layer

(* --- output --- *)

(* The metrics a --trace setting reports: 0 end-to-end, 1 per-layer. *)
let reported ~trace =
  match trace with
  | Some false -> end_to_end
  | Some true -> per_layer
  | None -> end_to_end @ per_layer

let print_table l ~trace =
  let first = List.hd l.timed in
  Printf.printf "\n== %s: %d timed, %d traced repetitions; sim_s %.6f\n" l.workload.name
    (List.length l.timed) (List.length l.traced) (get first "sim_s");
  Printf.printf "   per repetition: %.0f tracked tasks, %.0f runs\n" (get first "tasks")
    (get first "core.runs");
  Printf.printf "   %-36s %-6s %14s   [%s .. %s]\n" "metric" "unit" "median" "min" "max";
  List.iter
    (fun ((name, unit, _) as m) ->
      let v, lo, hi = summarize l m in
      Printf.printf "   %-36s %-6s %14.6g   [%.6g .. %.6g]\n" name unit v lo hi)
    (reported ~trace)

(* --- main --- *)

let usage () =
  prerr_endline
    "usage: ledger.exe [--workload W]... [--seed S] [--seconds T] [--reps K]\n\
    \                  [--trace 0|1] [--scale X]";
  exit 2

let run_passes ledgers ~seed ~seconds ~reps ~trace ~scale =
  let sims = List.map (fun l -> (l.workload.Streams.name, check_pass l ~seed ~scale)) ledgers in
  (* the domain pool must not change the schedule *)
  List.iter
    (fun l ->
      if l.workload.name = "entangled-d2" then begin
        let reference =
          match List.assoc_opt "entangled" sims with
          | Some s -> s
          | None ->
            let one =
              { workload = Option.get (Streams.find "entangled"); timed = []; traced = [];
                failures = [] }
            in
            let s = check_pass one ~seed ~scale in
            List.iter (fail l) one.failures;
            s
        in
        let d2 = List.assoc "entangled-d2" sims in
        if d2 <> reference then
          fail l
            (Printf.sprintf "d2_sim: sim_s %.6f at 2 domains <> %.6f at 1 domain" d2 reference)
      end)
    ledgers;
  (* timed and traced passes: one repetition of each workload per round *)
  let t0 = Ent_obs.Clock.monotonic () in
  let rounds = ref 0 in
  while !rounds < reps || Ent_obs.Clock.monotonic () -. t0 < seconds do
    List.iter
      (fun l ->
        l.timed <- l.timed @ [ repetition l ~mode:Rep.Timed ~seed ~scale ];
        if trace <> Some false then
          l.traced <- l.traced @ [ repetition l ~mode:Rep.Traced ~seed ~scale ])
      ledgers;
    incr rounds
  done;
  List.iter repeat_checks ledgers

let main ~workloads ~seed ~seconds ~reps ~trace ~scale =
  let ledgers =
    List.map (fun workload -> { workload; timed = []; traced = []; failures = [] }) workloads
  in
  Printf.printf "wall-clock ledger: seed %d, scale %g\n%!" seed scale;
  (try run_passes ledgers ~seed ~seconds ~reps ~trace ~scale
   with Child_failed reason ->
     prerr_endline ("ledger: " ^ reason);
     exit 1);
  List.iter (fun l -> print_table l ~trace) ledgers;
  let failures = List.concat_map (fun l -> l.failures) ledgers in
  Printf.printf "\nchecks: %s\n"
    (if failures = [] then "all passed"
     else string_of_int (List.length failures) ^ " FAILED");
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
  let reps = List.concat_map (fun l -> l.timed @ l.traced) ledgers in
  let total name = int_of_float (List.fold_left (fun acc r -> acc +. get r name) 0.0 reps) in
  (* one workload: bare metric names; several: prefixed by workload *)
  let prefix l = match ledgers with [ _ ] -> "" | _ -> l.workload.Streams.name ^ "/" in
  let metrics l =
    List.map
      (fun ((name, unit, _) as m) ->
        let v, _, _ = summarize l m in
        (prefix l ^ name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      (reported ~trace)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int (total "tasks"));
            ("failed", Json.Int (total "tasks" - total "committed"));
            ("metrics", Json.Obj (List.concat_map metrics ledgers));
          ]));
  if failures <> [] then exit 1

let () =
  let child = ref None and names = ref [] and seed = ref 1 and seconds = ref 0.0 in
  let reps = ref 5 and trace = ref None and scale = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--child" :: m :: rest ->
      child := Some (match Rep.mode_of_string m with Some m -> m | None -> usage ());
      parse rest
    | "--workload" :: w :: rest ->
      names := !names @ [ w ];
      parse rest
    | "--seed" :: s :: rest ->
      seed := (match int_of_string_opt s with Some s -> s | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s -> s | None -> usage ());
      parse rest
    | "--reps" :: k :: rest ->
      reps := (match int_of_string_opt k with Some k when k >= 1 -> k | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
      parse rest
    | "--scale" :: x :: rest ->
      scale := (match float_of_string_opt x with Some x when x > 0.0 -> x | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads =
    match !names with
    | [] -> Streams.all
    | names ->
      List.map
        (fun n ->
          match Streams.find n with
          | Some w -> w
          | None ->
            Printf.eprintf "unknown workload %s\n" n;
            exit 2)
        names
  in
  match !child with
  | Some mode ->
    let result = Rep.run (List.hd workloads) ~mode ~seed:!seed ~scale:!scale in
    print_endline (Json.to_string (Rep.to_json result))
  | None ->
    main ~workloads ~seed:!seed ~seconds:!seconds ~reps:!reps ~trace:!trace ~scale:!scale

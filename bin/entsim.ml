(* entsim — deterministic fault-injection simulation for entangled
   transactions.

     entsim --seeds 1000                    # 1000 seeded fault schedules
     entsim --seed 42 --plan 'txn.wal.append@3=crash'  # replay one schedule
     entsim --seed 7 --break-group-commit --seeds 20   # widow-detector check

   Each seed deterministically derives a workload and a fault plan
   (crashes at WAL append boundaries, torn records, flush failures,
   mid-group-commit crashes, lost pool snapshots, partner dropouts,
   injected timeouts), runs the system through crash and recovery, and
   checks the recovery invariants. Every failure prints a one-line
   repro command with a greedily shrunken plan.

   Exit codes: 0 all invariants held, 1 violations found, 2 bad input. *)

open Cmdliner
module Harness = Ent_entsim.Harness
module Plan = Ent_fault.Plan
module Event = Ent_obs.Event
module Trace = Ent_obs.Trace

(* Each violation carries the last events involving the implicated
   txns/tasks; print them as an indented causal timeline. *)
let print_violation tag (v : Harness.violation) =
  Printf.printf "  %s[%s] %s\n" tag v.invariant v.detail;
  List.iter (fun line -> Printf.printf "    | %s\n" line) v.timeline

let print_wait_graph = function
  | None -> ()
  | Some graph ->
    String.split_on_char '\n' graph
    |> List.iter (fun line -> if line <> "" then Printf.printf "  %s\n" line)

let print_outcome cfg (o : Harness.outcome) =
  Printf.printf "seed %d: plan %s — %d crash(es), %d flush failure(s), %d commit(s)\n"
    cfg.Harness.seed (Plan.to_string o.plan) o.crashes o.flush_failures o.commits;
  List.iter (print_violation "VIOLATION ") o.violations;
  if o.violations <> [] then print_wait_graph o.wait_graph

let report_failure ~out cfg (o : Harness.outcome) =
  let shrunk = Harness.shrink cfg o.plan in
  let repro = Harness.repro cfg shrunk in
  Printf.printf "FAIL seed %d: %d violation(s), shrunken plan %s\n"
    cfg.Harness.seed
    (List.length o.violations)
    (Plan.to_string shrunk);
  List.iter (print_violation "") o.violations;
  print_wait_graph o.wait_graph;
  Printf.printf "  repro: %s\n%!" repro;
  match out with
  | None -> shrunk
  | Some oc ->
    List.iter
      (fun (v : Harness.violation) ->
        (match String.split_on_char '\n' v.detail with
        | [] -> Printf.fprintf oc "# [%s]\n" v.invariant
        | first :: rest ->
          Printf.fprintf oc "# [%s] %s\n" v.invariant first;
          List.iter (fun line -> Printf.fprintf oc "#   %s\n" line) rest);
        List.iter (fun line -> Printf.fprintf oc "#   | %s\n" line) v.timeline)
      o.violations;
    Option.iter
      (fun graph ->
        String.split_on_char '\n' graph
        |> List.iter (fun line ->
               if line <> "" then Printf.fprintf oc "# %s\n" line))
      o.wait_graph;
    Printf.fprintf oc "%s\n%!" repro;
    shrunk

let write_flight path (o : Harness.outcome) =
  match o.flight with
  | None -> ()
  | Some doc ->
    Ent_obs.Flight.write path doc;
    Printf.printf "entsim: wrote flight-recorder dump to %s\n" path

let main seeds seed plan_str pairs rollback_pairs plain lonely users cities
    max_arms break_group_commit isolation timeline out_path
    trace_out flight_out verbose =
  if not (List.mem isolation [ "2pl"; "si"; "snapshot"; "mixed" ]) then begin
    prerr_endline
      ("entsim: bad --isolation " ^ isolation ^ " (2pl|si|mixed)");
    exit 2
  end;
  let isolation = if isolation = "snapshot" then "si" else isolation in
  (* The harness leaves the last executed schedule's events in the ring;
     [--trace-out] exports them as a Perfetto/chrome://tracing trace. *)
  let write_trace () =
    Option.iter
      (fun path ->
        Trace.write path (Event.events ());
        Printf.printf "entsim: wrote trace of the last executed schedule to %s\n"
          path)
      trace_out
  in
  let cfg =
    {
      Harness.seed;
      pairs;
      rollback_pairs;
      plain;
      lonely;
      users;
      cities;
      max_arms;
      break_group_commit;
      isolation;
      timeline;
    }
  in
  match plan_str with
  | Some s -> (
    match Plan.of_string s with
    | Error msg ->
      prerr_endline ("entsim: bad --plan: " ^ msg);
      2
    | Ok plan ->
      let o = Harness.run cfg plan in
      print_outcome cfg o;
      write_trace ();
      Option.iter (fun path -> write_flight path o) flight_out;
      if o.violations = [] then 0 else 1)
  | None ->
    let out = Option.map open_out out_path in
    let failures = ref 0 in
    let crashes = ref 0 in
    let traced = ref false in
    let flighted = ref false in
    for i = 0 to seeds - 1 do
      let cfg = { cfg with Harness.seed = seed + i } in
      let o = Harness.check_seed cfg in
      crashes := !crashes + o.crashes;
      if verbose then print_outcome cfg o;
      if o.violations <> [] then begin
        incr failures;
        (* Flight-record the first failure as observed (pre-shrink: the
           dump should show the run that actually tripped). *)
        if not !flighted then begin
          Option.iter (fun path -> write_flight path o) flight_out;
          flighted := true
        end;
        let shrunk = report_failure ~out cfg o in
        (* Trace the first failure: re-run its shrunken plan so the ring
           holds exactly the failing schedule, then export. *)
        if trace_out <> None && not !traced then begin
          ignore (Harness.run cfg shrunk);
          write_trace ();
          traced := true
        end
      end;
      if (i + 1) mod 200 = 0 then
        Printf.eprintf "entsim: %d/%d schedules, %d failure(s)\n%!" (i + 1)
          seeds !failures
    done;
    if not !traced then write_trace ();
    Option.iter close_out out;
    Printf.printf
      "entsim: %d seeded fault schedule(s), %d crash(es) injected, %d \
       failure(s)\n"
      seeds !crashes !failures;
    if !failures = 0 then 0 else 1

let seeds =
  Arg.(
    value & opt int 100
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeded fault schedules to run.")

let seed =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"S"
        ~doc:"Base seed: schedules use seeds S, S+1, … (with --plan: the seed).")

let plan =
  Arg.(
    value & opt (some string) None
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Replay exactly this fault plan (site@hit=action,…) under --seed \
           instead of generating plans.")

let pairs =
  Arg.(
    value & opt int Harness.default.pairs
    & info [ "pairs" ] ~docv:"N" ~doc:"Well-behaved entangled pairs per schedule.")

let rollback_pairs =
  Arg.(
    value & opt int Harness.default.rollback_pairs
    & info [ "rollback-pairs" ] ~docv:"N"
        ~doc:"Entangled pairs whose second member rolls back after entangling.")

let plain =
  Arg.(
    value & opt int Harness.default.plain
    & info [ "plain" ] ~docv:"N" ~doc:"Classical (non-entangled) transactions.")

let lonely =
  Arg.(
    value & opt int Harness.default.lonely
    & info [ "lonely" ] ~docv:"N"
        ~doc:"Partner-less entangled programs (they stay in the dormant pool).")

let users =
  Arg.(
    value & opt int Harness.default.users
    & info [ "users" ] ~docv:"N" ~doc:"Social-graph users in the travel world.")

let cities =
  Arg.(
    value & opt int Harness.default.cities
    & info [ "cities" ] ~docv:"N" ~doc:"Cities in the travel world.")

let max_arms =
  Arg.(
    value & opt int Harness.default.max_arms
    & info [ "max-arms" ] ~docv:"N" ~doc:"Maximum arms per generated fault plan.")

let break_group_commit =
  Arg.(
    value & flag
    & info [ "break-group-commit" ]
        ~doc:
          "Commit entanglement-group members independently (deliberately \
           broken; the harness must report widow violations).")

let isolation =
  Arg.(
    value & opt string Harness.default.isolation
    & info [ "isolation" ] ~docv:"LEVEL"
        ~doc:
          "Per-transaction isolation of the workload: 2pl (all Strict 2PL), \
           si (all snapshot isolation), or mixed (alternating). Snapshot \
           transactions read begin-stamp versions and take no read locks; \
           the harness additionally checks that version chains are empty \
           after recovery and at quiescence.")

let timeline =
  Arg.(
    value & opt int Harness.default.timeline
    & info [ "timeline" ] ~docv:"N"
        ~doc:
          "Events attached per violation timeline (the last N ring events \
           involving the implicated transactions).")

let out =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Append failing repro commands (with their violations) to FILE.")

let flight_out =
  Arg.(
    value & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:
          "Write a flight-recorder dump (metrics, time-series windows, event \
           ring, wait graph) of the first failing schedule to FILE as JSON. \
           Nothing is written when every schedule passes.")

let trace_out =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Perfetto / chrome://tracing trace of the last executed \
           schedule to FILE (with seeded schedules: the first failure's \
           shrunken plan, or the last seed when everything passed).")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule's outcome.")

let cmd =
  let doc = "deterministic fault-injection simulation for entangled transactions" in
  Cmd.v
    (Cmd.info "entsim" ~version:"1.0.0" ~doc)
    Term.(
      const main $ seeds $ seed $ plan $ pairs $ rollback_pairs $ plain $ lonely
      $ users $ cities $ max_arms $ break_group_commit
      $ isolation $ timeline $ out $ trace_out $ flight_out $ verbose)

let () = exit (Cmd.eval' cmd)

(* youtopia — run scripts of classical and entangled transactions.

   A script is a sequence of top-level statements (DDL and bootstrap
   DML, executed immediately) and BEGIN TRANSACTION ... COMMIT blocks
   (submitted to the entangled transaction scheduler). After the pool
   drains, outcomes, statistics and requested tables are printed.

     dune exec bin/youtopia.exe -- run script.sql --show Bookings
*)

open Ent_core

(* The script file, or standard input when none is given. *)
let read_input = function
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> In_channel.input_all stdin

let write_metrics = function
  | None -> ()
  | Some path ->
    Ent_obs.Obs.write_snapshot path;
    Printf.eprintf "wrote metrics snapshot to %s\n%!" path

let run_script path connections frequency parallel isolation_name show_tables
    verbose metrics trace_out wait_graph wait_graph_dot certify slo_path
    flight_out =
  match Isolation.of_name isolation_name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (isolation, levels) -> (
    (* Parse the SLO spec before doing any work: a bad file is exit 2,
       like a bad script. *)
    let slo_specs =
      match slo_path with
      | None -> Ok None
      | Some p -> (
        match Ent_obs.Slo.load p with
        | Ok specs -> Ok (Some specs)
        | Error msg -> Error msg)
    in
    match slo_specs with
    | Error msg ->
      Printf.eprintf "bad --slo file: %s\n" msg;
      2
    | Ok slo_specs -> (
    let input = read_input path in
    match Ent_sql.Parser.parse_script input with
    | exception Ent_sql.Parser.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
    | exception Ent_sql.Lexer.Lex_error msg ->
      Printf.eprintf "lex error: %s\n" msg;
      2
    | items ->
      if trace_out <> None then begin
        Ent_obs.Event.set_logging true;
        Ent_obs.Event.reset ()
      end;
      (* windowed sampling feeds the SLO monitor and the flight recorder *)
      let monitor = Option.map Ent_obs.Slo.create slo_specs in
      let timeseries =
        if slo_specs = None && flight_out = None then None
        else
          Some
            (Ent_obs.Timeseries.create
               ?on_window:(Option.map Ent_obs.Slo.observe monitor)
               ())
      in
      let runner =
        if parallel > 1 then Some (Ent_par.Pool.create ~domains:parallel)
        else None
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Ent_par.Pool.shutdown runner)
      @@ fun () ->
      let config =
        {
          Scheduler.default_config with
          connections;
          trigger = Scheduler.Every_arrivals frequency;
          isolation;
          runner;
          timeseries;
        }
      in
      let m = Manager.create ~config () in
      let certifier =
        if not certify then None
        else begin
          let c = Ent_schedule.Certify.create () in
          Manager.observe m
            ~on_event:(Ent_schedule.Certify.on_engine_event c)
            ~on_entangle:(Ent_schedule.Certify.on_entangle c);
          Some c
        end
      in
      let submitted = Manager.load_script m ~levels items in
      Manager.drain m;
      let pending = Scheduler.dormant (Manager.scheduler m) in
      List.iter
        (fun (id, label) ->
          let outcome =
            match Manager.outcome m id with
            | Some Scheduler.Committed -> "committed"
            | Some Scheduler.Timed_out -> "timed out"
            | Some Scheduler.Rolled_back -> "rolled back"
            | Some (Scheduler.Errored e) -> "error: " ^ e
            | None ->
              if List.mem id pending then "waiting for a partner" else "pending"
          in
          Printf.printf "%-8s %s\n" label outcome;
          if verbose then
            List.iter
              (fun (rel, values) ->
                Printf.printf "         answer %s(%s)\n" rel
                  (String.concat ", "
                     (List.map Ent_storage.Value.to_string values)))
              (Manager.answers_of m id))
        submitted;
      let s = Manager.stats m in
      Printf.printf
        "-- runs: %d, commits: %d, entanglements: %d, repooled: %d, \
         timeouts: %d, simulated time: %.3f ms\n"
        s.runs s.commits s.entangle_events s.repooled s.timeouts
        (1000.0 *. Manager.now m);
      if levels <> Isolation.All_2pl then
        Printf.printf "-- si aborts (first-committer-wins): %d\n" s.si_aborts;
      List.iter
        (fun table ->
          Printf.printf "-- table %s:\n" table;
          match Ent_storage.Catalog.find (Manager.catalog m) table with
          | None -> Printf.printf "   (unknown table)\n"
          | Some t ->
            Ent_storage.Table.iter
              (fun _ row ->
                Printf.printf "   (%s)\n"
                  (String.concat ", "
                     (List.map Ent_storage.Value.to_string
                        (Ent_storage.Tuple.to_list row))))
              t)
        show_tables;
      (* The wait graph at quiescence names the stuck tasks: dormant
         entangled programs still awaiting partners, or lock waiters. *)
      if wait_graph || wait_graph_dot <> None then begin
        let g = Scheduler.wait_graph (Manager.scheduler m) in
        if wait_graph then print_string (Waitgraph.render_text g);
        Option.iter
          (fun dot_path ->
            Out_channel.with_open_text dot_path (fun oc ->
                output_string oc (Waitgraph.render_dot g));
            Printf.eprintf "wrote wait graph (DOT) to %s\n%!" dot_path)
          wait_graph_dot
      end;
      Option.iter
        (fun out ->
          Ent_obs.Trace.write out (Ent_obs.Event.events ());
          Printf.eprintf "wrote Perfetto trace to %s\n%!" out)
        trace_out;
      write_metrics metrics;
      let certify_failed =
        match certifier with
        | None -> false
        | Some c ->
          Printf.printf "-- %s\n"
            (Format.asprintf "%a" Ent_schedule.Certify.pp_report c);
          not (Ent_schedule.Certify.ok c)
      in
      (* Close the partial window so even sub-window scripts evaluate
         their SLOs at least once, then print the structured verdict. *)
      Option.iter Ent_obs.Timeseries.flush timeseries;
      let slo_failed =
        match monitor with
        | None -> false
        | Some mon ->
          Printf.printf "-- slo: %s\n"
            (Ent_obs.Json.to_string (Ent_obs.Slo.report_json mon));
          not (Ent_obs.Slo.ok mon)
      in
      (* Flight recorder: dumped on SLO breach, or unconditionally when
         no SLO file was given (on-demand capture). *)
      (match (flight_out, timeseries) with
      | Some out, Some timeseries when slo_failed || Option.is_none monitor ->
        let doc =
          Ent_obs.Flight.to_json
            ~reason:(if slo_failed then "slo-breach" else "on-demand")
            ?slo:(Option.map Ent_obs.Slo.report_json monitor)
            ~timeseries ~sim_now:(Manager.now m) ()
        in
        Ent_obs.Flight.write out doc;
        Printf.eprintf "wrote flight-recorder dump to %s\n%!" out
      | _ -> ());
      if certify_failed || slo_failed then 1 else 0))

(* --- interactive mode ---

   Lines of the form "name> statement" drive per-user sessions against
   one Interactive hub; "name> poll", "name> commit" and "name> cancel"
   are session commands. Lines without a "name>" prefix are bootstrap
   DDL/DML executed directly. "#" starts a comment. *)

let repl path isolation_name =
  match Isolation.of_name isolation_name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (_, (All_si | Mixed)) ->
    prerr_endline
      "snapshot isolation applies to the run command; repl sessions are \
       Strict 2PL";
    2
  | Ok (isolation, All_2pl) ->
    let input = read_input path in
    let catalog = Ent_storage.Catalog.create () in
    let engine = Ent_txn.Engine.create ~wal:true catalog in
    let hub = Interactive.create_hub ~isolation engine in
    let sessions : (string, Interactive.session) Hashtbl.t = Hashtbl.create 8 in
    let session_of name =
      match Hashtbl.find_opt sessions name with
      | Some s -> s
      | None ->
        let s = Interactive.start hub in
        Hashtbl.replace sessions name s;
        s
    in
    let access = Ent_sql.Eval.direct_access catalog in
    let boot_env = Ent_sql.Eval.fresh_env () in
    let describe = function
      | Interactive.Rows rows ->
        Printf.sprintf "%d row(s)%s" (List.length rows)
          (String.concat ""
             (List.map
                (fun row ->
                  "\n    ("
                  ^ String.concat ", "
                      (List.map Ent_storage.Value.to_string (Array.to_list row))
                  ^ ")")
                rows))
      | Interactive.Affected n -> Printf.sprintf "ok (%d row)" n
      | Interactive.Answered atoms ->
        "answered"
        ^ String.concat ""
            (List.map
               (fun (rel, values) ->
                 Printf.sprintf " %s(%s)" rel
                   (String.concat ", "
                      (List.map Ent_storage.Value.to_string values)))
               atoms)
      | Interactive.Parked -> "waiting for a partner"
      | Interactive.Committed -> "committed"
      | Interactive.Commit_pending -> "waiting for partners to commit"
      | Interactive.Blocked -> "blocked on a lock (poll to retry)"
      | Interactive.Aborted reason -> "aborted: " ^ reason
    in
    let handle_line line =
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.index_opt line '>' with
        | Some i
          when i > 0
               && String.for_all
                    (fun c ->
                      (c >= 'a' && c <= 'z')
                      || (c >= 'A' && c <= 'Z')
                      || (c >= '0' && c <= '9')
                      || c = '_')
                    (String.sub line 0 i) ->
          let name = String.sub line 0 i in
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let s = session_of name in
          let reply =
            match String.lowercase_ascii rest with
            | "poll" -> Interactive.poll s
            | "commit" -> Interactive.commit s
            | "cancel" ->
              Interactive.cancel s;
              Interactive.poll s
            | _ -> (
              try Interactive.execute s rest
              with Invalid_argument msg -> Interactive.Aborted msg)
          in
          Printf.printf "%-8s %s\n%!" name (describe reply)
        | _ -> (
          match
            Ent_sql.Eval.exec_stmt access boot_env (Ent_sql.Parser.parse_stmt line)
          with
          | Ent_sql.Eval.Rows rows -> Printf.printf "boot     %d row(s)\n%!" (List.length rows)
          | Ent_sql.Eval.Affected _ | Ent_sql.Eval.Created -> Printf.printf "boot     ok\n%!"
          | exception (Ent_sql.Parser.Parse_error msg | Ent_sql.Lexer.Lex_error msg) ->
            Printf.printf "boot     parse error: %s\n%!" msg
          | exception Ent_sql.Eval.Eval_error msg ->
            Printf.printf "boot     error: %s\n%!" msg)
    in
    List.iter handle_line (String.split_on_char '\n' input);
    0

(* --- live dashboard ---

   [youtopia top] runs a script exactly like [run], but renders a text
   frame on every closed telemetry window: per-phase latency means,
   lock-shard waiter heat, grounding-cache hit rate and domain
   utilization. Simulated time drives the frames; [--delay] slows them
   down to a watchable wall-clock pace. *)

let top_script path connections frequency parallel isolation_name window delay
    =
  match Isolation.of_name isolation_name with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (isolation, levels) when window > 0.0 -> (
    let input = read_input path in
    match Ent_sql.Parser.parse_script input with
    | exception Ent_sql.Parser.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
    | exception Ent_sql.Lexer.Lex_error msg ->
      Printf.eprintf "lex error: %s\n" msg;
      2
    | items ->
      (* Events feed the per-phase attribution; windows feed the rest. *)
      Ent_obs.Event.set_logging true;
      Ent_obs.Event.reset ();
      let frames = ref 0 in
      let heat_char v =
        let scale = " .:-=+*#%@" in
        let i = min (String.length scale - 1) (int_of_float v) in
        scale.[max 0 i]
      in
      let render (w : Ent_obs.Timeseries.window) =
        incr frames;
        let buf = Buffer.create 1024 in
        let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        pf "\027[2J\027[H";
        pf "youtopia top — sim %.3fs  (window %.2fs, frame %d)\n\n"
          (w.w_start +. w.w_width) w.w_width !frames;
        let d name = Ent_obs.Timeseries.counter_delta w name in
        let rate n = float_of_int n /. w.w_width in
        pf "  txns  commit %.0f/s  abort %.0f/s  deadlock %.0f/s  runs %.0f/s\n"
          (rate (d "txn.engine.commits"))
          (rate (d "txn.engine.aborts"))
          (rate (d "core.scheduler.deadlocks"))
          (rate (d "core.scheduler.runs"));
        (* Per-phase latency means over finalized tasks so far. *)
        let reports =
          Ent_obs.Attrib.of_events
            ~time:(fun (e : Ent_obs.Event.t) -> e.t_sim)
            (Ent_obs.Event.events ())
        in
        let finished =
          List.filter
            (fun (r : Ent_obs.Attrib.txn_report) -> r.outcome <> None)
            reports
        in
        let n = List.length finished in
        pf "\n  phase means over %d finished txn(s):\n" n;
        List.iter
          (fun phase ->
            let sum =
              List.fold_left
                (fun acc (r : Ent_obs.Attrib.txn_report) ->
                  acc +. List.assq phase r.by_phase)
                0.0 finished
            in
            pf "    %-16s %8.3f ms\n"
              (Ent_obs.Attrib.phase_name phase)
              (if n = 0 then 0.0 else 1000.0 *. sum /. float_of_int n))
          Ent_obs.Attrib.phases;
        (* Lock-shard heat: one char per shard, by waiter count. *)
        let shards =
          List.filter
            (fun (name, _) ->
              String.length name > 22
              && String.sub name 0 22 = "txn.lock.shard_waiters")
            w.w_gauges
        in
        if shards <> [] then begin
          pf "\n  lock-shard waiters  [";
          List.iter (fun (_, v) -> pf "%c" (heat_char v)) shards;
          pf "]  (max %d)\n"
            (int_of_float
               (List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 shards))
        end;
        (* Cumulative grounding-cache hit rate. *)
        let hits =
          Option.value ~default:0
            (Ent_obs.Obs.find_counter "entangle.gcache.hits")
        in
        let misses =
          Option.value ~default:0
            (Ent_obs.Obs.find_counter "entangle.gcache.misses")
        in
        if hits + misses > 0 then
          pf "\n  gcache  %d hit(s) / %d lookup(s)  (%.0f%%)\n" hits
            (hits + misses)
            (100.0 *. float_of_int hits /. float_of_int (hits + misses));
        (match List.assoc_opt "par.pool.busy_domains" w.w_gauges with
        | Some busy when parallel > 1 ->
          pf "\n  domains  %.0f/%d busy\n" busy parallel
        | _ -> ());
        print_string (Buffer.contents buf);
        flush stdout;
        if delay > 0.0 then Unix.sleepf delay
      in
      let timeseries =
        Ent_obs.Timeseries.create ~width:window ~on_window:render ()
      in
      let runner =
        if parallel > 1 then Some (Ent_par.Pool.create ~domains:parallel)
        else None
      in
      Fun.protect ~finally:(fun () -> Option.iter Ent_par.Pool.shutdown runner)
      @@ fun () ->
      let config =
        {
          Scheduler.default_config with
          connections;
          trigger = Scheduler.Every_arrivals frequency;
          isolation;
          runner;
          timeseries = Some timeseries;
        }
      in
      let m = Manager.create ~config () in
      ignore (Manager.load_script m ~levels items);
      Manager.drain m;
      (* Last partial window becomes the final frame. *)
      Ent_obs.Timeseries.flush timeseries;
      let s = Manager.stats m in
      Printf.printf
        "\n-- done: %d frame(s), runs: %d, commits: %d, entanglements: %d, \
         simulated time: %.3f ms\n"
        !frames s.runs s.commits s.entangle_events
        (1000.0 *. Manager.now m);
      0)
  | Ok _ ->
    prerr_endline "youtopia top: --window must be positive";
    2

open Cmdliner

let path =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT"
         ~doc:"Script file (reads standard input when omitted).")

let connections =
  Arg.(value & opt int 100 & info [ "connections"; "c" ]
         ~doc:"Concurrent connections of the simulated DBMS.")

let frequency =
  Arg.(value & opt int 1 & info [ "frequency"; "f" ]
         ~doc:"Run frequency: start a run after this many arrivals.")

let parallel =
  Arg.(value & opt int 1 & info [ "parallel" ] ~docv:"N"
         ~doc:"Execute runs on a pool of $(docv) OCaml domains. 1 (the \
               default) is the deterministic single-domain mode.")

let isolation =
  Arg.(value & opt string "full" & info [ "isolation" ]
         ~doc:"Isolation level: full, no-group-commit, no-grounding-locks, \
               read-uncommitted (2PL presets); si (every transaction reads a \
               begin-time snapshot, first-committer-wins validation at \
               commit); mixed (alternate 2PL and si per submission).")

let show =
  Arg.(value & opt_all string [] & info [ "show" ]
         ~doc:"Print this table after the script finishes (repeatable).")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print answer tuples.")

let metrics =
  Arg.(value & opt (some string) None
         & info [ "metrics-out"; "metrics" ] ~docv:"FILE"
             ~doc:"Write an Obs metrics snapshot (JSON) to $(docv) on exit.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Log causal transaction events and write a Perfetto / \
               chrome://tracing trace of the whole script to $(docv).")

let wait_graph =
  Arg.(value & flag & info [ "wait-graph" ]
         ~doc:"Print the wait/entanglement graph after the pool drains \
               (who is blocked on whom, and why).")

let wait_graph_dot =
  Arg.(value & opt (some string) None & info [ "wait-graph-dot" ] ~docv:"FILE"
         ~doc:"Write the wait/entanglement graph as graphviz DOT to $(docv).")

let certify =
  Arg.(value & flag & info [ "certify" ]
         ~doc:"Certify the schedule online (conflict-serializability over \
               committed transactions, no read-from-aborted, no widows, \
               stable quasi-reads); print a report and exit nonzero on any \
               violation.")

let slo =
  Arg.(value & opt (some file) None & info [ "slo" ] ~docv:"FILE"
         ~doc:"Evaluate the SLO specs in $(docv) (JSON; see Ent_obs.Slo) \
               online over per-window telemetry while the script runs; \
               print a structured report and exit nonzero when any SLO \
               burned through both its short and long windows.")

let flight_out =
  Arg.(value & opt (some string) None & info [ "flight-out" ] ~docv:"FILE"
         ~doc:"Write a flight-recorder dump (metrics, time-series windows, \
               event ring, SLO report) to $(docv) — on breach when --slo is \
               given, unconditionally otherwise.")

let window =
  Arg.(value & opt float 0.25 & info [ "window" ] ~docv:"S"
         ~doc:"Dashboard window width in simulated seconds (one frame per \
               closed window).")

let delay =
  Arg.(value & opt float 0.0 & info [ "delay"; "interval" ] ~docv:"S"
         ~doc:"Wall-clock pause between frames, to watch the (fast) \
               simulation at a human pace.")

let run_cmd =
  let doc = "execute a script of classical and entangled transactions" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run_script $ path $ connections $ frequency $ parallel
          $ isolation $ show $ verbose $ metrics $ trace_out
          $ wait_graph $ wait_graph_dot $ certify $ slo $ flight_out)

let repl_cmd =
  let doc =
    "drive interactive sessions from a script of 'name> statement' lines"
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const repl $ path $ isolation)

let top_cmd =
  let doc =
    "execute a script under a live text dashboard (per-phase latencies, \
     lock-shard heat, cache hit rate, domain utilization)"
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top_script $ path $ connections $ frequency $ parallel
          $ isolation $ window $ delay)

let main =
  let doc = "the Youtopia entangled transaction manager" in
  Cmd.group
    (Cmd.info "youtopia" ~version:"1.0.0" ~doc)
    [ run_cmd; repl_cmd; top_cmd ]

let () = exit (Cmd.eval' main)

(* entlint — static analysis for entangled-transaction programs and a
   checker for recorded schedule histories.

     entlint lint program.sql other.sql      # static lint passes
     entlint lint --workload entangled-t     # lint generated workload programs
     entlint matrix                          # conflict matrix + lock-order graph
     entlint check history.txt               # Appendix C requirements on a schedule
     entlint record script.sql               # run a script, check the recorded schedule

   Exit codes: 0 clean, 1 findings/anomalies, 2 bad input. *)

open Ent_analysis

let read_input = function
  | Some path -> Driver.read_file path
  | None -> Ok (In_channel.input_all stdin)

let fail_input msg =
  prerr_endline msg;
  2

(* --- lint --- *)

let format_of = function
  | "text" -> Ok `Text
  | "json" -> Ok `Json
  | s -> Error (Printf.sprintf "unknown output format %S (text|json)" s)

let gather_inputs files workloads n ~require =
  let file_inputs =
    List.fold_left
      (fun acc path ->
        match acc with
        | Error _ -> acc
        | Ok acc -> (
          match Driver.inputs_of_file path with
          | Ok inputs -> Ok (acc @ inputs)
          | Error msg -> Error msg))
      (Ok []) files
  in
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ -> acc
      | Ok acc -> (
        match Driver.workload_inputs ~n name with
        | Ok inputs -> Ok (acc @ inputs)
        | Error msg -> Error msg))
    file_inputs workloads
  |> Result.map (fun inputs ->
         if inputs = [] && files = [] && workloads = [] then Error require
         else Ok inputs)
  |> Result.join

let lint_main files workload n strict format =
  match
    Result.bind (format_of format) (fun format ->
        Result.map
          (fun inputs -> (format, inputs))
          (gather_inputs files (Option.to_list workload) n
             ~require:"nothing to lint: give program files or --workload NAME"))
  with
  | Error msg -> fail_input msg
  | Ok (format, inputs) ->
    let findings = Driver.dedupe (Lint.run inputs) in
    (match format with
    | `Text -> Format.printf "%a%!" Driver.render_findings findings
    | `Json ->
      print_endline (Ent_obs.Json.to_string (Driver.findings_json findings)));
    Driver.exit_code ~strict findings

(* --- matrix --- *)

let matrix_main files workloads n format dot_out =
  let workloads =
    if workloads = [] && files = [] then Driver.workload_names else workloads
  in
  match
    Result.bind (format_of format) (fun format ->
        Result.map
          (fun inputs -> (format, inputs))
          (gather_inputs files workloads n ~require:"nothing to analyse"))
  with
  | Error msg -> fail_input msg
  | Ok (format, inputs) ->
    let m = Matrix.analyze inputs in
    (match dot_out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Matrix.lock_graph_dot m))
    | None -> ());
    (match format with
    | `Text ->
      Format.printf "%a@." Matrix.pp m;
      let findings = Driver.dedupe (Matrix.deadlock_findings m) in
      if findings <> [] then Format.printf "@\n%a%!" Driver.render_findings findings
    | `Json -> print_endline (Ent_obs.Json.to_string (Matrix.to_json m)));
    0

(* --- check --- *)

let serializability_of = function
  | "auto" -> Ok `Auto
  | "on" -> Ok `On
  | "off" -> Ok `Off
  | s -> Error (Printf.sprintf "unknown serializability mode %S (auto|on|off)" s)

(* --si takes "all" or a comma-separated transaction-id list; the
   history notation itself carries no isolation levels. *)
let si_levels_of history = function
  | None -> Ok None
  | Some "all" ->
    Ok
      (Some
         (List.map
            (fun txn -> (txn, Ent_txn.Engine.Snapshot))
            (Ent_schedule.History.txns history)))
  | Some spec -> (
    match
      List.map
        (fun part ->
          match int_of_string_opt (String.trim part) with
          | Some txn -> (txn, Ent_txn.Engine.Snapshot)
          | None -> raise Exit)
        (String.split_on_char ',' spec)
    with
    | levels -> Ok (Some levels)
    | exception Exit ->
      Error
        (Printf.sprintf
           "bad --si %S: expected \"all\" or comma-separated transaction ids"
           spec))

let report ~serializability certifier history =
  let r = Histcheck.check ~serializability certifier history in
  Format.printf "%a@.%!" Histcheck.pp r;
  if Histcheck.ok r then 0 else 1

let check_main path serializability si_txns =
  match serializability_of serializability with
  | Error msg -> fail_input msg
  | Ok serializability -> (
    match Result.bind (read_input path) Driver.history_of_text with
    | Error msg -> fail_input msg
    | Ok history -> (
      match si_levels_of history si_txns with
      | Error msg -> fail_input msg
      | Ok levels ->
        report ~serializability (Ent_schedule.Certify.replay ?levels history)
          history))

(* --- record --- *)

let record_main path isolation frequency serializability print_history =
  match serializability_of serializability with
  | Error msg -> fail_input msg
  | Ok serializability -> (
    match
      Result.bind (read_input path) (Driver.record_script ~isolation ~frequency)
    with
    | Error msg -> fail_input msg
    | Ok (history, certifier) ->
      if print_history then
        Format.printf "%a@." Ent_schedule.History.pp history;
      report ~serializability certifier history)

(* --- command line --- *)

open Cmdliner

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Program script files to lint.")

let workload =
  Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~docv:"NAME"
         ~doc:(Printf.sprintf "Lint the generated programs of a workload: %s."
                 (String.concat ", " Driver.workload_names)))

let size =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N"
         ~doc:"Batch or structure size for --workload.")

let strict =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Exit nonzero on warnings too, not only errors.")

let format =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FORMAT"
         ~doc:"Output format: text or json (stable fields mirroring the \
               finding record).")

let workloads =
  Arg.(value & opt_all string [] & info [ "workload"; "w" ] ~docv:"NAME"
         ~doc:(Printf.sprintf
                 "Analyse the generated programs of a workload (repeatable; \
                  default: all): %s."
                 (String.concat ", " Driver.workload_names)))

let dot_out =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
         ~doc:"Also write the lock-order graph as Graphviz DOT to $(docv).")

let history_file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"HISTORY"
         ~doc:"Schedule history file (stdin when omitted), in the notation \
               of Appendix C: R1(x) RG1(Flights) W1(Reserve[5]) E1{1,2} C1 A2.")

let script_file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT"
         ~doc:"SQL script to execute (stdin when omitted).")

let serializability =
  Arg.(value & opt string "auto" & info [ "serializability" ] ~docv:"MODE"
         ~doc:"Check oracle-serializability: auto (only when exact), on, off.")

let isolation =
  Arg.(value & opt string "full" & info [ "isolation" ]
         ~doc:"Isolation level for record: full, no-group-commit, \
               no-grounding-locks, read-uncommitted (2PL presets); si \
               (snapshot isolation for every transaction) or mixed \
               (alternate 2PL and si), judged by the level-aware \
               certifier instead of the Appendix C checker.")

let si_txns =
  Arg.(value & opt (some string) None & info [ "si" ] ~docv:"TXNS"
         ~doc:"Treat these transactions of the history as snapshot-isolation \
               ($(docv) is \"all\" or comma-separated ids) and check with \
               the level-aware certifier instead of the Appendix C checker.")

let frequency =
  Arg.(value & opt int 1 & info [ "frequency"; "f" ]
         ~doc:"Run frequency for record: start a run after this many arrivals.")

let print_history =
  Arg.(value & flag & info [ "print-history" ]
         ~doc:"Print the recorded schedule before the report.")

let lint_cmd =
  let doc = "statically analyse entangled-transaction programs" in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint_main $ files $ workload $ size $ strict $ format)

let matrix_cmd =
  let doc =
    "conflict/commutativity matrix and lock-order graph over a program suite"
  in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(const matrix_main $ files $ workloads $ size $ format $ dot_out)

let check_cmd =
  let doc = "check a schedule history against the Appendix C requirements" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const check_main $ history_file $ serializability $ si_txns)

let record_cmd =
  let doc = "execute a script, record its schedule, and check it" in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const record_main $ script_file $ isolation $ frequency
          $ serializability $ print_history)

let main =
  let doc = "static analyzer and schedule checker for entangled transactions" in
  Cmd.group (Cmd.info "entlint" ~version:"1.0.0" ~doc)
    [ lint_cmd; matrix_cmd; check_cmd; record_cmd ]

let () = exit (Cmd.eval' main)

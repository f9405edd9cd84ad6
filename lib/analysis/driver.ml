module Parser = Ent_sql.Parser
module Ast = Ent_sql.Ast

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Loading lint inputs                                                 *)
(* ------------------------------------------------------------------ *)

(* Transaction blocks become transactional programs. Consecutive bare
   statements form an autocommit group: when such a group contains an
   entangled query it is analysed as a non-transactional (-Q style)
   program; pure DDL/bootstrap groups carry no isolation content and
   are dropped. *)
let inputs_of_items ~source items =
  let inputs = ref [] in
  let txn_count = ref 0 in
  let auto_count = ref 0 in
  let pending = ref [] in
  let flush_pending () =
    let group = List.rev !pending in
    pending := [];
    let has_entangled =
      List.exists
        (fun (s, _) ->
          match (s : Ast.stmt) with
          | Entangled _ -> true
          | _ -> false)
        group
    in
    if has_entangled then begin
      incr auto_count;
      let label = Printf.sprintf "autocommit-%d" !auto_count in
      let program =
        Ent_core.Program.make ~label ~transactional:false
          { Ast.timeout = None; body = group }
      in
      inputs := { Lint.source; program } :: !inputs
    end
  in
  List.iter
    (fun item ->
      match item with
      | Parser.Stmt (s, at) -> pending := (s, at) :: !pending
      | Parser.Program ast ->
        flush_pending ();
        incr txn_count;
        let label = Printf.sprintf "txn-%d" !txn_count in
        inputs :=
          { Lint.source; program = Ent_core.Program.make ~label ast }
          :: !inputs)
    items;
  flush_pending ();
  List.rev !inputs

let inputs_of_script ~source text =
  match Parser.parse_script text with
  | items -> Ok (inputs_of_items ~source items)
  | exception Parser.Parse_error msg -> Error (source ^ ":" ^ msg)
  | exception Ent_sql.Lexer.Lex_error msg -> Error (source ^ ":" ^ msg)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let inputs_of_file path =
  let* text = read_file path in
  inputs_of_script ~source:path text

(* ------------------------------------------------------------------ *)
(* Workload mode: lint the generated programs of a named workload      *)
(* ------------------------------------------------------------------ *)

let workload_names =
  [ "no-social-t"; "no-social-q"; "social-t"; "social-q"; "entangled-t";
    "entangled-q"; "spoke-hub"; "cycle" ]

let workload_inputs ?(n = 4) name =
  let open Ent_workload in
  let build () = Travel.build ~users:40 ~cities:6 () in
  let batch kind transactional =
    let world = build () in
    Ok (Gen.batch world ~transactional kind ~n ~tag_base:0)
  in
  let* programs =
    match name with
    | "no-social-t" -> batch Gen.No_social true
    | "no-social-q" -> batch Gen.No_social false
    | "social-t" -> batch Gen.Social true
    | "social-q" -> batch Gen.Social false
    | "entangled-t" -> batch Gen.Entangled true
    | "entangled-q" -> batch Gen.Entangled false
    | "spoke-hub" -> Ok (Gen.spoke_hub (build ()) ~set_size:(max 2 n) ~tag_base:0)
    | "cycle" -> Ok (Gen.cycle (build ()) ~set_size:(max 2 n) ~tag_base:0)
    | _ ->
      Error
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name
           (String.concat ", " workload_names))
  in
  Ok
    (List.map
       (fun program -> { Lint.source = "workload:" ^ name; program })
       programs)

(* ------------------------------------------------------------------ *)
(* History checking and recording                                      *)
(* ------------------------------------------------------------------ *)

let history_of_text text =
  match Histparse.parse text with
  | h -> Ok h
  | exception Histparse.Parse_error msg -> Error msg

(* Execute a script under a recorder and a certifier and return the
   schedule of the terminated transactions with the certifier that
   watched it — the bridge from the simulator to the formal checkers. *)
let record_script ?(isolation = "full") ?(frequency = 1) text =
  let open Ent_core in
  let* isolation, levels = Isolation.of_name isolation in
  let* items =
    match Parser.parse_script text with
    | items -> Ok items
    | exception Parser.Parse_error msg -> Error msg
    | exception Ent_sql.Lexer.Lex_error msg -> Error msg
  in
  let config =
    {
      Scheduler.default_config with
      isolation;
      trigger = Scheduler.Every_arrivals frequency;
    }
  in
  let m = Manager.create ~config () in
  let recorder = Ent_schedule.Recorder.create () in
  let certifier = Ent_schedule.Certify.create () in
  Manager.observe m
    ~on_event:(fun ev ->
      Ent_schedule.Recorder.on_engine_event recorder ev;
      Ent_schedule.Certify.on_engine_event certifier ev)
    ~on_entangle:(fun ~event participants ->
      Ent_schedule.Recorder.on_entangle recorder ~event participants;
      Ent_schedule.Certify.on_entangle certifier ~event participants);
  match
    ignore (Manager.load_script m ~levels items);
    Manager.drain m
  with
  | () -> Ok (Ent_schedule.Recorder.completed_history recorder, certifier)
  | exception Ent_sql.Eval.Eval_error msg -> Error ("evaluation error: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Rendering and exit codes                                            *)
(* ------------------------------------------------------------------ *)

(* Multi-source runs can emit the same diagnostic more than once — the
   same cross-program cycle re-anchored to one program, workload
   batches of structurally identical programs. Two findings agreeing
   on (source, position, program, code) — i.e. [Finding.compare]
   returns 0 — are the same diagnostic; keep the first. *)
let dedupe findings =
  let rec drop = function
    | a :: (b :: _ as rest) when Finding.compare a b = 0 -> drop (a :: List.tl rest)
    | a :: rest -> a :: drop rest
    | [] -> []
  in
  drop (List.stable_sort Finding.compare findings)

let counts findings =
  List.fold_left
    (fun (e, w) (f : Finding.t) ->
      match f.severity with
      | Finding.Error -> (e + 1, w)
      | Finding.Warning -> (e, w + 1))
    (0, 0) findings

let render_findings ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@\n" Finding.pp f) findings;
  let errors, warnings = counts findings in
  if findings = [] then Format.fprintf ppf "no findings@\n"
  else
    Format.fprintf ppf "%d error%s, %d warning%s@\n" errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")

let findings_json findings =
  let errors, warnings = counts findings in
  Ent_obs.Json.Obj
    [
      ("findings", Ent_obs.Json.List (List.map Finding.to_json findings));
      ("errors", Ent_obs.Json.Int errors);
      ("warnings", Ent_obs.Json.Int warnings);
    ]

(* 0 = clean, 1 = findings at error severity (or any finding under
   [strict]), 2 = input could not be parsed at all. *)
let exit_code ?(strict = false) findings =
  let errors, warnings = counts findings in
  if errors > 0 then 1 else if strict && warnings > 0 then 1 else 0

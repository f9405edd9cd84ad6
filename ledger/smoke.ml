(* Smoke test of the ledger against BENCHMARK.json, run by
   [dune runtest]: every workload it lists, at 2% size with one
   repetition, once per --trace setting. Each run must pass its own
   correctness checks (which include the manual loop reproducing the
   [Every_arrivals] schedule) and end with a result line reporting
   exactly the metrics BENCHMARK.json lists for that setting, with
   their units and finite values.

   usage: smoke.exe LEDGER.exe BENCHMARK.json *)

module Json = Ent_obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("smoke: " ^ s))
    fmt

let load path = Json.of_string (In_channel.with_open_text path In_channel.input_all)

let field name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> failwith ("BENCHMARK.json: missing " ^ name)

let names_units group =
  List.map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m) with
      | Some (Json.Str n), Some (Json.Str u) -> (n, u)
      | _ -> failwith "BENCHMARK.json: metric without name or unit")
    (Option.value ~default:[] (Json.to_list_opt group))

(* The last line the ledger printed, as JSON. *)
let run ledger args =
  let ic = Unix.open_process_args_in ledger (Array.of_list (ledger :: args)) in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  let status = Unix.close_process_in ic in
  (status, Json.of_string (List.nth lines (List.length lines - 1)))

let check ~label ~expected result =
  let keys = match result with Json.Obj kvs -> List.map fst kvs | _ -> [] in
  if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
    fail "%s: result keys are %s" label (String.concat "," keys);
  if Json.member "correct" result <> Some (Json.Bool true) then fail "%s: not correct" label;
  (match Option.bind (Json.member "attempted" result) Json.to_int_opt with
  | Some n when n >= 1 -> ()
  | _ -> fail "%s: attempted is not a positive integer" label);
  if Json.member "failed" result <> Some (Json.Int 0) then fail "%s: failed is not 0" label;
  let metrics = match Json.member "metrics" result with Some (Json.Obj m) -> m | _ -> [] in
  let missing a b = List.filter (fun (n, _) -> not (List.mem_assoc n b)) a in
  List.iter (fun (n, _) -> fail "%s: %s is missing" label n) (missing expected metrics);
  List.iter (fun (n, _) -> fail "%s: %s is not in BENCHMARK.json" label n) (missing metrics expected);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> ()
      | Some m ->
        if Json.member "unit" m <> Some (Json.Str unit) then
          fail "%s: %s has not the unit %s" label name unit;
        (match Option.bind (Json.member "value" m) Json.to_float_opt with
        | Some v when Float.is_finite v -> ()
        | _ -> fail "%s: %s has no finite value" label name))
    expected

let () =
  let ledger, bench =
    match Sys.argv with
    | [| _; ledger; bench |] ->
      (* a bare name would be looked up in PATH *)
      ( (if Filename.is_relative ledger then Filename.concat (Sys.getcwd ()) ledger
         else ledger),
        load bench )
    | _ ->
      prerr_endline "usage: smoke.exe LEDGER.exe BENCHMARK.json";
      exit 2
  in
  let workloads =
    List.filter_map
      (fun w -> Option.bind (Json.member "name" w) Json.to_string_opt)
      (Option.value ~default:[] (Json.to_list_opt (field "workloads" bench)))
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, group) ->
          let label = Printf.sprintf "%s --trace %s" workload trace in
          match
            run ledger
              [ "--workload"; workload; "--seed"; "1"; "--scale"; "0.02"; "--reps"; "1";
                "--trace"; trace ]
          with
          | Unix.WEXITED 0, result ->
            check ~label ~expected:(names_units (field group bench)) result
          | _ -> fail "%s: ledger exited nonzero" label
          | exception (Json.Parse_error _ | Failure _) -> fail "%s: no result line" label)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  if workloads = [] then fail "BENCHMARK.json lists no workload";
  (* entangled-d2 is left out of BENCHMARK.json (README.md, "Noise"), but
     its own checks, and the one that compares it with entangled, must
     still pass *)
  (match
     run ledger
       [ "--workload"; "entangled"; "--workload"; "entangled-d2"; "--seed"; "1"; "--scale";
         "0.02"; "--reps"; "1"; "--trace"; "0" ]
   with
  | Unix.WEXITED 0, result when Json.member "correct" result = Some (Json.Bool true) -> ()
  | _ -> fail "entangled and entangled-d2: checks failed"
  | exception (Json.Parse_error _ | Failure _) -> fail "entangled-d2: no result line");
  if !failures > 0 then exit 1;
  Printf.printf "ledger smoke: %d workloads ok\n" (List.length workloads)

open Ent_schedule

type violation = {
  code : string;
  requirement : string;
  witness : string;
}

type report = {
  ops : int;
  txns : int list;
  committed : int list;
  aborted : int list;
  validity : string list;
  violations : violation list;
  allowed : violation list;
  level : [ `Full | `No_widow | `Loose ];
  serializable : bool option;
}

(* The certifier's C.1 codes: [History.validity_errors] reports every
   fault they catch, and more. *)
let validity_codes =
  [ "unanswered-ground"; "ground-gap"; "post-terminal"; "double-terminal" ]

(* The certifier's other codes in report order, with the requirement
   each one violates. *)
let requirements =
  [ ("conflict-cycle", "C.2 (no cycles)");
    ("read-from-aborted", "C.3 (no read from aborted)");
    ("widowed", "C.4 (no widowed transactions)");
    ("unrepeatable-quasi-read", "quasi-read stability (Figure 3b)");
    ("si-lost-update", "snapshot isolation (first committer wins)");
    ("si-read-uncommitted", "snapshot isolation (committed versions only)");
    ("si-write-skew", "snapshot isolation") ]

(* Drop the C.1 codes, label the rest, list them in requirement order. *)
let report_of vs =
  let rank code =
    Option.value ~default:max_int
      (List.find_index (fun (c, _) -> c = code) requirements)
  in
  List.filter
    (fun (v : Certify.violation) -> not (List.mem v.code validity_codes))
    vs
  |> List.map (fun (v : Certify.violation) ->
         {
           code = v.code;
           requirement =
             Option.value ~default:v.code (List.assoc_opt v.code requirements);
           witness = v.detail;
         })
  |> List.stable_sort (fun a b -> compare (rank a.code) (rank b.code))

let check ?(serializability = `Auto) c history =
  let txns = History.txns history in
  let committed = History.committed history in
  let violations = report_of (Certify.violations c) in
  let serializable =
    let compute () = Some (Abstract.oracle_serializable history) in
    match serializability with
    | `Off -> None
    | (`On | `Auto) when List.exists (Certify.is_si c) txns -> None
    | `On -> compute ()
    | `Auto ->
      (* The oracle falls back from exhaustive permutation search to a
         single topological order above 7 committed transactions, which
         can under-approximate — only report when it is exact. *)
      if List.length committed <= 7 then compute () else None
  in
  {
    ops = List.length history;
    txns;
    committed;
    aborted = History.aborted history;
    validity = History.validity_errors history;
    violations;
    allowed = report_of (Certify.anomalies c);
    level =
      (if violations = [] then `Full
       else if List.exists (fun v -> v.code = "widowed") violations then `Loose
       else `No_widow);
    serializable;
  }

let ok r =
  r.validity = [] && r.violations = [] && r.serializable <> Some false

let pp_level ppf = function
  | `Full -> Format.pp_print_string ppf "full (entangled-isolated, C.5)"
  | `No_widow -> Format.pp_print_string ppf "no-widow"
  | `Loose -> Format.pp_print_string ppf "loose"

let pp ppf r =
  Format.fprintf ppf "history: %d ops, %d transactions (%d committed, %d aborted)@\n"
    r.ops (List.length r.txns)
    (List.length r.committed)
    (List.length r.aborted);
  (match r.validity with
  | [] -> Format.fprintf ppf "validity (C.1): ok@\n"
  | errs ->
    Format.fprintf ppf "validity (C.1): %d error%s@\n" (List.length errs)
      (if List.length errs = 1 then "" else "s");
    List.iter (fun e -> Format.fprintf ppf "    %s@\n" e) errs);
  let pp_violations verdict =
    List.iter (fun v ->
        Format.fprintf ppf "anomaly [%s] %s %s:@\n    %s@\n" v.code verdict
          v.requirement v.witness)
  in
  if r.violations = [] then Format.fprintf ppf "anomalies: none@\n";
  pp_violations "violates" r.violations;
  pp_violations "allowed by" r.allowed;
  Format.fprintf ppf "isolation level: %a@\n" pp_level r.level;
  match r.serializable with
  | None -> Format.fprintf ppf "oracle-serializable: not checked"
  | Some true -> Format.fprintf ppf "oracle-serializable: yes"
  | Some false -> Format.fprintf ppf "oracle-serializable: NO"

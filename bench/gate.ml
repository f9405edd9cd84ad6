(* The performance gate: one table of bounds over bench documents.

   Every gate compares a candidate series of a BENCH_*.json document
   with a reference series by the ratio of their mean per-transaction
   throughput (effective transactions / time_s, averaged over the
   paired points), and passes when that ratio is at least [min_ratio].
   A document's "figure" member picks the gates that apply to it. A
   missing series or point fails its gate.

   Mean throughput, not summed time: runs at different BENCH_TXNS are
   comparable because cells are homogeneous, so per-transaction
   throughput is the unit, and a sum of times would weigh the slowest
   cells most. *)

module Json = Ent_obs.Json

type gate = {
  figure : string;  (** the "figure" of the documents it applies to *)
  series : string;  (** the candidate series *)
  reference : string;  (** the reference series *)
  baseline : bool;
      (** the reference is read from the committed baseline of the
          figure ({!baseline_path}), not from the document itself *)
  at : (int * int) option;
      (** [Some (x, x')]: the candidate point at [x] against the
          reference point at [x']; [None]: every reference point against
          the candidate point at the same x *)
  min_ratio : float;
}

(* Figure 6 sweeps are simulated time, so the bound only absorbs the
   scale effects (cache warm-up, pool mixing) between a smoke run and
   the paper-scale baseline. *)
let fig6 figure series =
  List.map
    (fun s ->
      { figure; series = s; reference = s; baseline = true; at = None;
        min_ratio = 0.70 })
    series

(* Wall-clock scale-up from 1 to 4 domains (CI runners have 4 vCPUs):
   NoSocial-T is embarrassingly parallel at the lock level, the honest
   measure of scheduler overhead; Entangled-T's scaling comes from
   parallel stepping and grounding. *)
let scaleup series min_ratio =
  { figure = "scaleup"; series; reference = series; baseline = false;
    at = Some (4, 1); min_ratio }

let gates =
  fig6 "fig6a"
    [ "NoSocial-T"; "Social-T"; "Entangled-T"; "NoSocial-Q"; "Social-Q";
      "Entangled-Q" ]
  @ fig6 "fig6b" [ "f=1"; "f=10"; "f=50" ]
  @ fig6 "fig6c"
      [ "Spoke-hub f=10"; "Spoke-hub f=50"; "Cycle f=10"; "Cycle f=50" ]
  @ [ scaleup "NoSocial-T" 1.8;
      scaleup "Entangled-T" 1.5;
      (* snapshot readers take no read locks, so SI must be at least as
         fast as Strict 2PL on the same stream *)
      { figure = "si"; series = "Social-T si"; reference = "Social-T 2pl";
        baseline = false; at = None; min_ratio = 1.0 } ]

let baseline_path figure =
  Filename.concat "test/fixtures" (Printf.sprintf "BENCH_%s.json" figure)

(* Transactions per cell: fig6c cells run max(200, BENCH_TXNS/5) (see
   bench/main.ml's fig6c), every other figure BENCH_TXNS. *)
let txns doc =
  match Option.bind (Json.member "bench_txns" doc) Json.to_int_opt with
  | None -> Error "no bench_txns"
  | Some n ->
    Ok
      (match Json.member "figure" doc with
      | Some (Json.Str "fig6c") -> max 200 (n / 5)
      | _ -> n)

(* (x, throughput) of every point of the named series with a positive
   time. *)
let throughput doc name =
  let series =
    Option.value ~default:[] (Option.bind (Json.member "series" doc) Json.to_list_opt)
  in
  match
    ( txns doc,
      List.find_opt (fun s -> Json.member "name" s = Some (Json.Str name)) series )
  with
  | Error e, _ -> Error e
  | _, None -> Error (Printf.sprintf "series %s missing" name)
  | Ok n, Some s ->
    Ok
      (List.filter_map
         (fun p ->
           match
             ( Option.bind (Json.member "x" p) Json.to_int_opt,
               Option.bind (Json.member "time_s" p) Json.to_float_opt )
           with
           | Some x, Some t when t > 0.0 -> Some (x, float_of_int n /. t)
           | _ -> None)
         (Option.value ~default:[]
            (Option.bind (Json.member "points" s) Json.to_list_opt)))

let ( let* ) = Result.bind

let point name points x =
  match List.assoc_opt x points with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "series %s has no point at x=%d" name x)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* (reference, candidate) mean throughput over the paired points. *)
let means g ~doc ~reference_doc =
  let* cand = throughput doc g.series in
  let* refs = throughput reference_doc g.reference in
  let* pairs =
    match g.at with
    | Some (x, x') ->
      let* c = point g.series cand x in
      let* r = point g.reference refs x' in
      Ok [ (r, c) ]
    | None ->
      if refs = [] then Error (Printf.sprintf "series %s has no points" g.reference)
      else
        List.fold_right
          (fun (x, r) acc ->
            let* acc = acc in
            let* c = point g.series cand x in
            Ok ((r, c) :: acc))
          refs (Ok [])
  in
  Ok (mean (List.map fst pairs), mean (List.map snd pairs))

type verdict = { gate : gate; means : (float * float, string) result }

let ratio (reference, candidate) = candidate /. reference

let passed v =
  match v.means with
  | Ok m -> ratio m >= v.gate.min_ratio
  | Error _ -> false

let check ~baseline doc =
  match Json.member "figure" doc with
  | Some (Json.Str fig) ->
    let base = lazy (baseline fig) in
    List.filter_map
      (fun g ->
        if g.figure <> fig then None
        else
          let reference_doc = if g.baseline then Lazy.force base else doc in
          Some { gate = g; means = means g ~doc ~reference_doc })
      gates
  | _ -> []

let describe v =
  let g = v.gate in
  let side name = function
    | None -> name
    | Some x -> Printf.sprintf "%s x=%d" name x
  in
  let label =
    Printf.sprintf "%s %s vs %s" g.figure
      (side g.series (Option.map fst g.at))
      (if g.baseline then "baseline" else side g.reference (Option.map snd g.at))
  in
  match v.means with
  | Error e -> Printf.sprintf "%-44s FAIL: %s" label e
  | Ok ((r, c) as m) ->
    Printf.sprintf "%-44s %10.2f -> %10.2f txn/s  ratio %.3f (min %.2f)  %s"
      label r c (ratio m) g.min_ratio
      (if passed v then "ok" else "FAIL")

(* The perf gate on small synthetic bench documents. *)

module Json = Ent_obs.Json

let doc ?(txns = 100) figure series =
  Json.Obj
    [ ("figure", Json.Str figure);
      ("bench_txns", Json.Int txns);
      ( "series",
        Json.List
          (List.map
             (fun (name, points) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ( "points",
                     Json.List
                       (List.map
                          (fun (x, t) ->
                            Json.Obj [ ("x", Json.Int x); ("time_s", Json.Float t) ])
                          points) ) ])
             series) ) ]

let no_baseline fig = Alcotest.failf "unexpected baseline read for %s" fig

let verdict ?(baseline = no_baseline) d series =
  match
    List.find_opt (fun v -> v.Gate.gate.series = series) (Gate.check ~baseline d)
  with
  | Some v -> v
  | None -> Alcotest.failf "no gate for series %s" series

let passes ?baseline d series = Gate.passed (verdict ?baseline d series)

let all_pass ?(baseline = no_baseline) d =
  match Gate.check ~baseline d with
  | [] -> Alcotest.fail "no gate applies"
  | vs -> List.for_all Gate.passed vs

(* fig6b with every series at 100 txn/s at x=0 and x=10, except f=50,
   whose x=10 point runs at [slow] txn/s. *)
let fig6b_docs slow =
  let flat = [ (0, 1.0); (10, 1.0) ] in
  let base = doc "fig6b" [ ("f=1", flat); ("f=10", flat); ("f=50", flat) ] in
  let fresh =
    doc "fig6b"
      [ ("f=1", flat); ("f=10", flat); ("f=50", [ (0, 1.0); (10, 100.0 /. slow) ]) ]
  in
  (base, fresh)

let test_figure_bound () =
  (* mean throughput 71 against 100 reads -29%, though the summed time
     (1 + 100/42 against 2) would read -41% *)
  let base, fresh = fig6b_docs 42.0 in
  let baseline _ = base in
  Alcotest.(check bool) "-29% passes" true (passes ~baseline fresh "f=50");
  Alcotest.(check bool) "document passes" true (all_pass ~baseline fresh);
  let base, fresh = fig6b_docs 38.0 in
  let baseline _ = base in
  Alcotest.(check bool) "-31% fails" false (passes ~baseline fresh "f=50");
  Alcotest.(check bool) "other series pass" true (passes ~baseline fresh "f=10");
  Alcotest.(check bool) "document fails" false (all_pass ~baseline fresh)

let test_fig6c_effective_txns () =
  (* fig6c cells run max(200, BENCH_TXNS/5) transactions: 2 000 in 20 s
     at paper scale and 200 in 2 s at smoke scale are the same 100
     txn/s *)
  let series t =
    List.map
      (fun s -> (s, [ (2, t); (3, t) ]))
      [ "Spoke-hub f=10"; "Spoke-hub f=50"; "Cycle f=10"; "Cycle f=50" ]
  in
  let base = doc ~txns:10_000 "fig6c" (series 20.0) in
  let fresh = doc ~txns:100 "fig6c" (series 2.0) in
  let v = verdict ~baseline:(fun _ -> base) fresh "Cycle f=50" in
  (match v.means with
  | Ok m -> Alcotest.(check (float 1e-9)) "ratio" 1.0 (Gate.ratio m)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "document passes" true (all_pass ~baseline:(fun _ -> base) fresh)

let scaleup ?(nosocial = [ (1, 1.81); (2, 1.2); (4, 1.0) ]) () =
  doc "scaleup"
    [ ("NoSocial-T", nosocial);
      ("Social-T", [ (1, 1.0); (2, 1.0); (4, 1.0) ]);
      ("Entangled-T", [ (1, 2.0); (2, 1.5); (4, 1.0) ]) ]

let test_scaleup () =
  Alcotest.(check bool) "1.81x passes" true (all_pass (scaleup ()));
  let slow = scaleup ~nosocial:[ (1, 1.79); (2, 1.2); (4, 1.0) ] () in
  Alcotest.(check bool) "1.79x fails" false (passes slow "NoSocial-T");
  Alcotest.(check bool) "Entangled-T still passes" true (passes slow "Entangled-T");
  let no_x4 = scaleup ~nosocial:[ (1, 4.0); (2, 1.0) ] () in
  Alcotest.(check bool) "no x=4 point fails" false (passes no_x4 "NoSocial-T")

let test_missing_series () =
  let flat = [ (10, 1.0); (20, 1.0) ] in
  let names =
    [ "NoSocial-T"; "Social-T"; "Entangled-T"; "NoSocial-Q"; "Social-Q";
      "Entangled-Q" ]
  in
  let base = doc "fig6a" (List.map (fun s -> (s, flat)) names) in
  let fresh =
    doc "fig6a"
      (List.filter_map (fun s -> if s = "Social-Q" then None else Some (s, flat)) names)
  in
  let baseline _ = base in
  Alcotest.(check bool) "missing series fails" false (passes ~baseline fresh "Social-Q");
  Alcotest.(check bool) "document fails" false (all_pass ~baseline fresh);
  let short = doc "fig6a" (List.map (fun s -> (s, [ (10, 1.0) ])) names) in
  Alcotest.(check bool) "missing point fails" false (all_pass ~baseline short)

let test_si () =
  let si ~t2pl ~tsi =
    doc "si"
      [ ("Social-T 2pl", [ (10, t2pl); (20, t2pl) ]);
        ("Social-T si", [ (10, tsi); (20, tsi) ]);
        ("Social-T mixed", [ (10, 9.0); (20, 9.0) ]) ]
  in
  Alcotest.(check bool) "SI faster passes" true (all_pass (si ~t2pl:1.0 ~tsi:0.8));
  Alcotest.(check bool) "SI slower fails" false (all_pass (si ~t2pl:1.0 ~tsi:1.01))

let () =
  Alcotest.run "gate"
    [ ( "gate",
        [ Alcotest.test_case "figure bound at 0.70, mean throughput" `Quick
            test_figure_bound;
          Alcotest.test_case "fig6c effective transaction count" `Quick
            test_fig6c_effective_txns;
          Alcotest.test_case "scale-up at 4 domains" `Quick test_scaleup;
          Alcotest.test_case "missing series or point fails" `Quick
            test_missing_series;
          Alcotest.test_case "SI against 2PL" `Quick test_si ] ) ]

(* Tests for the continuous-telemetry engine (lib/obs): time-series
   window aggregation against a lockstep oracle, burn-rate alert edge
   cases (empty windows, short-only spikes, sim-time jumps, ring wrap,
   backwards clocks), SLO spec parsing, schema validation of the
   flight-recorder and SLO-report documents, and two schedulers each
   sampling its own series in one process. *)

open Ent_obs

(* Every test drives the process-global registry: reset it, then give
   the test a fresh series of its own so tests compose in any order. *)
let fresh ?(width = 1.0) ?(capacity = 128) ?on_window () =
  Obs.reset ();
  Timeseries.create ~width ~capacity ?on_window ()

(* --- window aggregation vs a lockstep oracle ---

   Sample-before-observe in strictly increasing time: each observation
   then lands in the window containing its timestamp exactly (the
   window is closed only by a later sample, after the deltas
   accumulated), so per-window counter deltas and histogram counts and
   sums are exact, and quantiles inherit the histogram's relative
   error. *)

let prop_window_oracle =
  QCheck2.Test.make ~name:"window deltas match a lockstep oracle" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (float_range 0.01 0.8) (int_range 0 5)
           (float_range 1e-3 1e3)))
    (fun events ->
      let ts = fresh () in
      let c = Obs.counter "test.ts.counter" in
      let h = Obs.histogram "test.ts.hist" in
      (* oracle: window start |-> (counter delta, observations) *)
      let oracle : (float, int ref * float list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let slot start =
        match Hashtbl.find_opt oracle start with
        | Some s -> s
        | None ->
          let s = (ref 0, ref []) in
          Hashtbl.replace oracle start s;
          s
      in
      let now = ref 0.05 in
      List.iter
        (fun (dt, n, v) ->
          now := !now +. dt;
          Timeseries.sample ts !now;
          Obs.incr ~n c;
          Obs.observe h v;
          let delta, obs = slot (Float.floor !now) in
          delta := !delta + n;
          obs := v :: !obs)
        events;
      Timeseries.flush ts;
      List.for_all
          (fun (w : Timeseries.window) ->
            let delta, obs =
              match Hashtbl.find_opt oracle w.w_start with
              | Some (d, o) -> (!d, !o)
              | None -> (0, [])
            in
            Timeseries.counter_delta w "test.ts.counter" = delta
            &&
            match Timeseries.window_hist w "test.ts.hist" with
            | None -> obs = []
            | Some wh ->
              let sorted = Array.of_list obs in
              Array.sort compare sorted;
              let n = Array.length sorted in
              let exact q =
                sorted.(max 0
                          (min (n - 1)
                             (int_of_float
                                (Float.round (q *. float_of_int (n - 1))))))
              in
              Hist.count wh = n
              && Float.abs (Hist.sum wh -. List.fold_left ( +. ) 0.0 obs)
                 <= 1e-6 *. Float.max 1.0 (Float.abs (Hist.sum wh))
              && List.for_all
                   (fun q ->
                     Float.abs (Hist.quantile wh q -. exact q)
                     <= (3. *. Hist.default_alpha *. exact q) +. 1e-9)
                   [ 0.5; 0.95; 0.99 ])
        (Timeseries.windows ts))

(* Every oracle window with data must appear among the closed windows
   once the clock passed it (no silently dropped windows). *)
let test_windows_cover_time () =
  let ts = fresh () in
  let c = Obs.counter "test.ts.cover" in
  List.iter
    (fun t ->
      Timeseries.sample ts t;
      Obs.incr c)
    [ 0.2; 0.7; 1.3; 2.9; 3.1 ];
  Timeseries.flush ts;
  let ws = Timeseries.windows ts in
  Alcotest.(check (list (float 1e-9)))
    "window starts" [ 0.0; 1.0; 2.0; 3.0 ]
    (List.map (fun (w : Timeseries.window) -> w.w_start) ws);
  Alcotest.(check (list int))
    "per-window deltas" [ 2; 1; 1; 1 ]
    (List.map (fun w -> Timeseries.counter_delta w "test.ts.cover") ws)

(* A jump farther than the whole ring closes one window and re-anchors
   instead of materializing millions of empty windows. *)
let test_giant_jump_reanchors () =
  let ts = fresh ~width:1.0 ~capacity:8 () in
  let c = Obs.counter "test.ts.jump" in
  Timeseries.sample ts 0.5;
  Obs.incr ~n:3 c;
  Timeseries.sample ts 1e9;
  Timeseries.flush ts;
  let ws = Timeseries.windows ts in
  Alcotest.(check bool) "bounded window count" true (List.length ws <= 8);
  let total =
    List.fold_left
      (fun acc w -> acc + Timeseries.counter_delta w "test.ts.jump")
      0 ws
  in
  Alcotest.(check int) "delta not lost" 3 total

let test_ring_wrap () =
  let ts = fresh ~width:1.0 ~capacity:4 () in
  let c = Obs.counter "test.ts.wrap" in
  for t = 0 to 9 do
    Timeseries.sample ts (float_of_int t +. 0.5);
    Obs.incr c
  done;
  Timeseries.flush ts;
  let ws = Timeseries.windows ts in
  Alcotest.(check int) "ring keeps the last capacity windows" 4
    (List.length ws);
  Alcotest.(check (float 1e-9)) "oldest retained window" 6.0
    (List.hd ws).Timeseries.w_start

(* Backwards clock (entsim crash/recovery): the ring re-anchors keeping
   counter bases, so pre-crash deltas roll into the first post-crash
   window — counted once, never dropped and never double-counted. *)
let test_backwards_clock () =
  let ts = fresh () in
  let c = Obs.counter "test.ts.back" in
  Timeseries.sample ts 5.2;
  Obs.incr ~n:2 c;
  Timeseries.sample ts 1.1;
  Obs.incr ~n:3 c;
  Timeseries.flush ts;
  let total =
    List.fold_left
      (fun acc w -> acc + Timeseries.counter_delta w "test.ts.back")
      0 (Timeseries.windows ts)
  in
  Alcotest.(check int) "counted exactly once" 5 total

let test_flush_partial_width () =
  let ts = fresh () in
  let c = Obs.counter "test.ts.partial" in
  Timeseries.sample ts 0.25;
  Obs.incr c;
  Timeseries.sample ts 0.65;
  Timeseries.flush ts;
  match Timeseries.windows ts with
  | [ w ] ->
    Alcotest.(check (float 1e-9)) "partial width" 0.65 w.w_width;
    Alcotest.(check int) "partial delta" 1
      (Timeseries.counter_delta w "test.ts.partial")
  | ws -> Alcotest.failf "expected one partial window, got %d" (List.length ws)

(* --- burn-rate alerting --- *)

let rate_spec ?(short = 1) ?(long = 5) max_per_s =
  {
    Slo.sp_name = "r";
    sp_metric = "test.slo.events";
    sp_kind = Slo.Rate { max_per_s };
    sp_short = short;
    sp_long = long;
  }

let latency_spec ?(short = 1) ?(long = 5) max_s =
  {
    Slo.sp_name = "l";
    sp_metric = "test.slo.lat";
    sp_kind = Slo.Latency { quantile = 0.99; max_s };
    sp_short = short;
    sp_long = long;
  }

(* Drive a monitor with hand-built windows: [deltas] is one counter
   delta (and that many 1.0s-latency observations) per 1s window. *)
let drive spec deltas =
  let mon = Slo.create [ spec ] in
  let ts = fresh ~on_window:(Slo.observe mon) () in
  let c = Obs.counter "test.slo.events" in
  let h = Obs.histogram "test.slo.lat" in
  List.iteri
    (fun i n ->
      Timeseries.sample ts (float_of_int i +. 0.5);
      Obs.incr ~n c;
      for _ = 1 to n do
        Obs.observe h 1.0
      done)
    deltas;
  Timeseries.sample ts (float_of_int (List.length deltas) +. 0.5);
  mon

let test_empty_windows_no_alert () =
  let mon = drive (latency_spec 1e-9) [ 0; 0; 0; 0; 0 ] in
  Alcotest.(check bool) "no data, no latency breach" true (Slo.ok mon)

let test_short_spike_no_alert () =
  (* one hot window inside a healthy long range: short breaches, long
     does not — no alert *)
  let mon = drive (rate_spec 5.0) [ 0; 0; 0; 0; 10 ] in
  Alcotest.(check bool) "spike alone does not alert" true (Slo.ok mon)

let test_sustained_burn_alerts () =
  let mon = drive (rate_spec 5.0) [ 10; 10; 10; 10; 10 ] in
  Alcotest.(check bool) "sustained burn alerts" false (Slo.ok mon);
  match Slo.alerts mon with
  | [] -> Alcotest.fail "no alert recorded"
  | a :: _ ->
    Alcotest.(check string) "alert names the spec" "r" a.Slo.al_spec;
    Alcotest.(check bool) "short value breaches" true
      (a.Slo.al_short > a.Slo.al_threshold)

let test_latency_burn_alerts () =
  let mon = drive (latency_spec 0.5) [ 4; 4; 4; 4; 4 ] in
  Alcotest.(check bool) "1s observations over a 0.5s ceiling" false
    (Slo.ok mon)

let test_report_shape_and_schema () =
  let mon = drive (rate_spec 5.0) [ 10; 10; 10; 10; 10 ] in
  let report = Slo.report_json mon in
  (match Schema.validate_slo_report report with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  match Json.member "ok" report with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "report ok should be false"

let test_spec_parsing () =
  let ok =
    Json.of_string
      {|{ "slos": [
           { "name": "p99", "kind": "latency",
             "metric": "core.scheduler.txn_latency_s",
             "quantile": 0.99, "threshold_s": 0.5 },
           { "name": "dl", "kind": "rate",
             "metric": "core.scheduler.deadlocks", "max_per_s": 1.5,
             "short_windows": 2, "long_windows": 10 },
           { "name": "gs", "kind": "min_mean",
             "metric": "core.commit.group_size", "min": 1.0 } ] }|}
  in
  (match Slo.specs_of_json ok with
  | Ok [ p99; dl; gs ] ->
    Alcotest.(check int) "default short" 1 p99.Slo.sp_short;
    Alcotest.(check int) "default long" 5 p99.Slo.sp_long;
    Alcotest.(check int) "explicit short" 2 dl.Slo.sp_short;
    Alcotest.(check int) "explicit long" 10 dl.Slo.sp_long;
    (match gs.Slo.sp_kind with
    | Slo.Min_mean { min_mean } ->
      Alcotest.(check (float 0.)) "min mean" 1.0 min_mean
    | _ -> Alcotest.fail "wrong kind for min_mean spec")
  | Ok specs -> Alcotest.failf "expected 3 specs, got %d" (List.length specs)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Slo.specs_of_json (Json.of_string bad) with
      | Ok _ -> Alcotest.failf "accepted bad spec %s" bad
      | Error _ -> ())
    [
      {|{ "slos": [] }|};
      {|{ "slos": [ { "name": "x", "kind": "nope", "metric": "m" } ] }|};
      {|{ "slos": [ { "name": "x", "kind": "latency", "metric": "m",
                      "quantile": 1.5, "threshold_s": 1.0 } ] }|};
      {|{ "slos": [ { "name": "x", "kind": "rate", "metric": "m" } ] }|};
    ]

(* --- two schedulers, two series ---

   A deterministic scheduler and one on a 2-domain pool share the
   process but not their telemetry: each samples only the series in its
   own config, and each monitor sees only its own series' windows. *)

let test_two_schedulers () =
  Obs.reset ();
  let monitored width =
    let mon = Slo.create [ rate_spec 1e9 ] in
    ( width,
      mon,
      Timeseries.create ~width ~capacity:4096 ~on_window:(Slo.observe mon) () )
  in
  let ((_, _, ts_a) as a) = monitored 0.002 in
  let ((_, _, ts_b) as b) = monitored 0.005 in
  let drain runner timeseries =
    let config =
      {
        Ent_core.Scheduler.default_config with
        connections = 20;
        trigger = Ent_core.Scheduler.Every_arrivals 10;
        runner;
        timeseries = Some timeseries;
      }
    in
    let world = Ent_workload.Travel.build ~users:60 ~cities:4 ~config () in
    let manager = world.Ent_workload.Travel.manager in
    List.iter
      (fun p -> ignore (Ent_core.Manager.submit manager p))
      (Ent_workload.Gen.batch world ~transactional:true
         Ent_workload.Gen.Entangled ~n:40 ~tag_base:0);
    Ent_core.Manager.drain manager;
    Timeseries.flush timeseries
  in
  drain None ts_a;
  let ring_a = Json.to_string (Timeseries.to_json ts_a) in
  let pool = Ent_par.Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Ent_par.Pool.shutdown pool)
    (fun () -> drain (Some pool) ts_b);
  Alcotest.(check string) "second run leaves the first ring alone" ring_a
    (Json.to_string (Timeseries.to_json ts_a));
  List.iter
    (fun (width, mon, ts) ->
      let ws = Timeseries.windows ts in
      Alcotest.(check bool) "several windows" true (List.length ws > 2);
      List.iter
        (fun (w : Timeseries.window) ->
          let k = w.w_start /. width in
          if Float.abs (k -. Float.round k) > 1e-6 then
            Alcotest.failf "window at %g is not on a multiple of %g" w.w_start
              width)
        ws;
      Alcotest.(check (option int)) "monitor saw its own series' windows"
        (Some (List.length ws))
        (Option.bind
           (Json.member "windows_evaluated" (Slo.report_json mon))
           Json.to_int_opt))
    [ a; b ]

(* --- flight recorder schema --- *)

let test_flight_validates () =
  let timeseries = fresh () in
  let c = Obs.counter "test.flight.counter" in
  Obs.incr ~n:7 c;
  Timeseries.sample timeseries 0.5;
  Timeseries.flush timeseries;
  let doc =
    Flight.to_json ~reason:"test" ~wait_graph:"0 waiting task(s)" ~timeseries
      ~sim_now:0.5 ()
  in
  (match Schema.validate_flight doc with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  Alcotest.(check bool) "recognized as flight" true (Schema.is_flight doc);
  (* validate_string dispatches on the flight_recorder tag *)
  (match Schema.validate_string (Json.to_string doc) with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* mutations must be rejected *)
  let drop key =
    match doc with
    | Json.Obj fields -> Json.Obj (List.remove_assoc key fields)
    | _ -> assert false
  in
  List.iter
    (fun key ->
      match Schema.validate_flight (drop key) with
      | Ok () -> Alcotest.failf "flight without %s accepted" key
      | Error _ -> ())
    [ "reason"; "metrics"; "timeseries"; "events"; "events_dropped" ]

(* A bench point may carry an "slo" member; the schema checks it. *)
let test_bench_point_slo_section () =
  let mon = drive (rate_spec 5.0) [ 1; 1 ] in
  let snapshot =
    Json.Obj
      [
        ( "counters",
          Json.Obj
            [
              ("core.scheduler.runs", Json.Int 1);
              ("entangle.coordinate.answered", Json.Int 1);
              ("storage.table.inserts", Json.Int 1);
              ("txn.lock.requests", Json.Int 1);
            ] );
        ("gauges", Json.Obj []);
        ("histograms", Json.Obj []);
      ]
  in
  let point slo =
    Json.Obj
      ([
         ("x", Json.Int 10);
         ("time_s", Json.Float 0.5);
         ("metrics", snapshot);
       ]
      @ match slo with None -> [] | Some s -> [ ("slo", s) ])
  in
  let doc slo =
    Json.Obj
      [
        ("schema_version", Json.Int Schema.version);
        ("figure", Json.Str "fig6a");
        ("bench_txns", Json.Int 100);
        ("x_label", Json.Str "connections");
        ("unit", Json.Str "simulated_seconds");
        ( "series",
          Json.List
            (List.map
               (fun name ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("points", Json.List [ point slo ]);
                   ])
               [
                 "NoSocial-T"; "Social-T"; "Entangled-T"; "NoSocial-Q";
                 "Social-Q"; "Entangled-Q";
               ]) );
      ]
  in
  (match Schema.validate (doc (Some (Slo.report_json mon))) with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* a malformed slo section must fail the whole document *)
  match Schema.validate (doc (Some (Json.Obj [ ("ok", Json.Int 3) ]))) with
  | Ok () -> Alcotest.fail "bench point with broken slo section accepted"
  | Error _ -> ()

let () =
  Alcotest.run "telemetry"
    [
      ( "timeseries",
        [
          QCheck_alcotest.to_alcotest prop_window_oracle;
          Alcotest.test_case "windows cover time" `Quick
            test_windows_cover_time;
          Alcotest.test_case "giant jump re-anchors" `Quick
            test_giant_jump_reanchors;
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "backwards clock" `Quick test_backwards_clock;
          Alcotest.test_case "flush partial window" `Quick
            test_flush_partial_width;
          Alcotest.test_case "two schedulers, two series" `Quick
            test_two_schedulers;
        ] );
      ( "slo",
        [
          Alcotest.test_case "empty windows do not alert" `Quick
            test_empty_windows_no_alert;
          Alcotest.test_case "short-only spike does not alert" `Quick
            test_short_spike_no_alert;
          Alcotest.test_case "sustained burn alerts" `Quick
            test_sustained_burn_alerts;
          Alcotest.test_case "latency burn alerts" `Quick
            test_latency_burn_alerts;
          Alcotest.test_case "report validates" `Quick
            test_report_shape_and_schema;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        ] );
      ( "flight",
        [
          Alcotest.test_case "flight dump validates" `Quick
            test_flight_validates;
          Alcotest.test_case "bench point slo section" `Quick
            test_bench_point_slo_section;
        ] );
    ]

(* Crash flight recorder.

   One JSON artifact holding everything needed to reconstruct the last
   N seconds before something went wrong: the windowed time-series
   (rates and latency quantiles per window, including the lock-shard
   contention, MVCC chain-depth and domain-utilization gauges), the
   tail of the structured event ring, the cumulative metric snapshot,
   and — passed in by callers that have one, since obs sits below the
   scheduler — the rendered wait graph. Triggers: an SLO breach
   (youtopia run --slo), an entsim invariant violation, or any caller
   that wants a dump. *)

let version = 1

let to_json ~reason ?wait_graph ?slo ?(events_last = 256) ~timeseries ~sim_now
    () =
  let fin v = Json.Float (if Float.is_finite v then v else 0.0) in
  Json.Obj
    ([
       ("flight_recorder", Json.Int version);
       ("reason", Json.Str reason);
       ("captured_sim_s", fin sim_now);
       ("metrics", Obs.snapshot_json ());
       ("timeseries", Timeseries.to_json timeseries);
       ( "events",
         Json.List (List.map Event.to_json (Event.recent ~last:events_last ()))
       );
       ("events_dropped", Json.Int (Event.dropped ()));
     ]
    @ (match wait_graph with
      | Some g -> [ ("wait_graph", Json.Str g) ]
      | None -> [])
    @ match slo with Some s -> [ ("slo", s) ] | None -> [])

let write path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

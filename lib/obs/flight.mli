(** Crash flight recorder: one JSON artifact with the last N seconds.

    Bundles the run's windowed {!Timeseries} ring, the tail of the {!Event}
    ring, the cumulative metric snapshot, and optionally a rendered
    wait graph and an SLO report into a single document recognizable by
    its top-level ["flight_recorder"] version field ([Schema] validates
    it). Produced on SLO breach ([youtopia run --slo --flight-out]),
    entsim invariant violations ([entsim --flight-out]), or on demand. *)

val version : int

val to_json :
  reason:string ->
  ?wait_graph:string ->
  ?slo:Json.t ->
  ?events_last:int ->
  timeseries:Timeseries.t ->
  sim_now:float ->
  unit ->
  Json.t
(** Capture now. [reason] is a short tag (["slo-breach"],
    ["invariant-violation"], …); [timeseries] is the run's own series
    (flush it first so the dump reaches the moment of capture);
    [events_last] bounds the event tail (default 256). *)

val write : string -> Json.t -> unit
(** Write a document (newline-terminated) to a file. *)

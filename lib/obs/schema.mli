(** Validator for the BENCH_fig6*.json benchmark artifacts.

    The document layout is described in EXPERIMENTS.md ("Machine-
    readable results") and in the comment at the top of schema.ml.
    CI's bench-smoke job regenerates the artifacts at reduced scale and
    rejects the build when validation fails. *)

val version : int
(** Current schema_version. *)

val validate : Json.t -> (unit, string list) result
(** Validate a benchmark document. Points may optionally carry a
    ["latency_attribution"] block ({!Attrib.to_json}); when they do,
    its per-phase sums must add up to its measured total within 5%,
    and — when the event ring dropped nothing — that total must agree
    with the [core.scheduler.txn_latency_s] histogram within 5%.
    Points may also carry an ["slo"] section ({!Slo.report_json}),
    checked with {!validate_slo_report}. *)

val validate_slo_report : Json.t -> (unit, string list) result
(** Validate one {!Slo.report_json} section: ok/total_breaches
    consistency, per-spec shape, total = sum of per-spec breaches,
    finite alert values. *)

val is_trace : Json.t -> bool
(** A document with a ["traceEvents"] member (Chrome trace format). *)

val is_flight : Json.t -> bool
(** A document with a top-level ["flight_recorder"] member. *)

val validate_flight : Json.t -> (unit, string list) result
(** Validate a {!Flight.to_json} artifact: version, reason, finite
    capture time, metric snapshot sections, per-window time-series
    shape, event tail, and (when present) the embedded SLO report and
    wait graph. *)

val validate_trace : Json.t -> (unit, string list) result
(** Validate a {!Trace.to_json} document: every event has name / ph /
    pid / tid / finite ts, complete events carry finite durations,
    instants carry their log sequence number, flow start/finish pairs
    balance, and the exported instant count matches
    ["otherData"."events"]. *)

val validate_string : string -> (unit, string list) result
val validate_file : string -> (unit, string list) result
(** Parse then dispatch: flight-recorder documents ({!is_flight}) go
    through {!validate_flight}, trace documents ({!is_trace}) through
    {!validate_trace}, everything else through {!validate}. *)

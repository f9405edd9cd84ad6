(** Online SLO monitor with multi-window burn-rate alerts.

    Declarative specs bound a registered metric: a latency-quantile
    ceiling over a histogram ([kind: "latency"]), an events-per-second
    ceiling over a counter ([kind: "rate"]), or a mean floor over a
    histogram ([kind: "min_mean"], e.g. minimum group-commit size).

    Each spec is re-evaluated on every closed {!Timeseries} window over
    two trailing ranges — [short_windows] (default 1) and
    [long_windows] (default 5) — and breaches only when {e both}
    ranges breach: a single hot window inside a healthy long range does
    not alert, a sustained burn does. Ranges with no samples are not
    breaches for latency/mean specs; rate specs read empty windows as
    zero events over elapsed time.

    Spec file shape:
    {[
      { "slos": [
        { "name": "txn-p99", "kind": "latency",
          "metric": "core.scheduler.txn_latency_s",
          "quantile": 0.99, "threshold_s": 0.5,
          "short_windows": 1, "long_windows": 5 },
        { "name": "deadlocks", "kind": "rate",
          "metric": "core.scheduler.deadlocks", "max_per_s": 1.0 },
        { "name": "group-size", "kind": "min_mean",
          "metric": "core.commit.group_size", "min": 1.0 } ] }
    ]} *)

type kind =
  | Latency of { quantile : float; max_s : float }
  | Rate of { max_per_s : float }
  | Min_mean of { min_mean : float }

type spec = {
  sp_name : string;
  sp_metric : string;  (** registered metric name *)
  sp_kind : kind;
  sp_short : int;  (** trailing windows in the short (fast-burn) range *)
  sp_long : int;  (** trailing windows in the long (sustained) range *)
}

type alert = {
  al_spec : string;
  al_window_start : float;
  al_short : float;
  al_long : float;
  al_threshold : float;
}

type t

val create : spec list -> t

val observe : t -> Timeseries.window -> unit
(** Feed one closed window to every spec. A monitor watches one series:
    give [~on_window:(observe t)] to {!Timeseries.create}. *)

val ok : t -> bool
(** No spec has breached so far. *)

val alerts : t -> alert list
(** Fired alerts, oldest first (capped at 64; the total breach count
    in {!report_json} is exact). *)

val report_json : t -> Json.t
(** Structured verdict:
    [{ok, windows_evaluated, total_breaches, specs: [...], alerts:
    [...]}] — the ["slo"] section embedded in bench cells and printed
    by [youtopia run --slo]. *)

val specs_of_json : Json.t -> (spec list, string) result

val load : string -> (spec list, string) result
(** Read and parse a spec file. *)

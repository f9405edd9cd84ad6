(** Process-global metrics registry.

    Metric names follow ["layer.component.metric"], e.g.
    ["txn.lock.waits"]. Counters, gauges and histograms are interned by
    name: instrumented modules call {!counter}/{!gauge}/{!histogram}
    once at initialization and bump the returned handle on the hot
    path (an [Atomic] fetch-and-add — cheap enough to stay on by
    default). *)

(** {1 Metrics} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or create the counter registered under this name.
    @raise Invalid_argument if the name holds a different metric type. *)

val incr : ?n:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit

val histogram : ?alpha:float -> string -> histogram
val observe : histogram -> float -> unit

(** Merged snapshot of the histogram's per-domain stripes — a fresh
    [Hist.t], not a live view. Counters and histograms are striped by
    executing domain so parallel workloads never share a cell; reads
    merge the stripes and are bitwise identical to an unstriped
    implementation when only one domain observed. *)
val hist : histogram -> Hist.t

val find_counter : string -> int option
val find_gauge : string -> float option
val find_histogram : string -> Hist.t option
val metric_names : unit -> string list

(** {1 Snapshots} *)

val snapshot_json : unit -> Json.t
(** All registered metrics:
    [{"counters": {..}, "gauges": {..}, "histograms": {name: summary}}].
    Keys are sorted; every value is finite. *)

val snapshot : unit -> string
(** [Json.to_string (snapshot_json ())]. *)

val write_snapshot : string -> unit
(** Write [snapshot ()] (newline-terminated) to a file. *)

val reset : unit -> unit
(** Zero every metric and clear the {!Event} log. Registered handles
    stay valid (benchmarks reset between cells). A {!Timeseries} must
    not span a reset: its counter bases would be ahead of the zeroed
    metrics, so create a fresh series after each one. *)

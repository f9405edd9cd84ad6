(** Windowed time-series aggregation of the metrics registry.

    A series is a value. {!sample} slices simulated time into fixed
    windows and closes each one into the series' ring: counters
    contribute their per-window delta, histograms a delta histogram
    (exact counts, [alpha]-accurate quantiles via {!Hist.diff}), gauges
    their value at close. Each closed window is also passed to the
    [on_window] callback given to {!create}.

    A scheduler samples the series in its config's [timeseries] field,
    on the coordinator between parallel phases, so metric reads never
    race worker-domain histogram writes. A series has no lock: sample
    and read it from one domain.

    A window's deltas are whatever accumulated between the sample that
    opened it and the one that closed it — resolution is the sampling
    cadence, one scheduler progress-loop iteration in practice.
    Simulated-time jumps produce empty gap windows (or re-anchor when
    the gap exceeds the whole ring); a backwards clock (entsim
    crash/recovery) re-anchors keeping counter bases, so pre-crash
    deltas roll into the first post-crash window. A series must not
    span an [Obs.reset]: create a fresh one after each reset. *)

type window = {
  w_start : float;  (** window start, simulated seconds *)
  w_width : float;  (** nominal width, or less for a {!flush} remnant *)
  w_counters : (string * int) list;
      (** per-window deltas, name-sorted; zero deltas omitted *)
  w_gauges : (string * float) list;  (** values at window close *)
  w_hists : (string * Hist.t) list;
      (** per-window delta histograms; empty ones omitted *)
}

type t

val create :
  ?width:float -> ?capacity:int -> ?on_window:(window -> unit) -> unit -> t
(** A series with the given window width (simulated seconds, default
    1.0) and ring capacity in windows (default 120). [on_window] is
    called, on the sampling domain, for every window as it closes: the
    online SLO monitor ([Slo.observe]) and [youtopia top]'s renderer
    are such callbacks. The series anchors at its first {!sample}. *)

val sample : t -> float -> unit
(** [sample t now] advances the window clock to [now], closing any
    windows that ended. *)

val flush : t -> unit
(** Close the current partial window at the last sampled time (its
    [w_width] is the actual elapsed fraction). Call at end of run so
    short runs still produce at least one window. *)

val windows : t -> window list
(** Retained closed windows, oldest first. *)

val counter_delta : window -> string -> int
(** Delta of a counter in this window (0 when absent). *)

val window_hist : window -> string -> Hist.t option

val to_json : t -> Json.t
(** [{window_s, windows: [{start, width, counters, gauges,
    histograms}, ...]}]. *)

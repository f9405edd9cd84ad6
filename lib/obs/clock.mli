(** Clocks for events and wall-clock measurements.

    {!monotonic} never goes backwards and is unaffected by wall-clock
    adjustment (NTP slew, manual changes); durations and event order
    must be computed from it. Its epoch is arbitrary (platform boot,
    typically), so absolute instants are meaningless across processes
    — {!anchor} ties the monotonic timeline to the Unix epoch once per
    process, which is what trace export uses to label a trace with the
    real time it was captured at. *)

val monotonic : unit -> float
(** Seconds on the monotonic clock (arbitrary epoch). *)

val wall : unit -> float
(** Seconds since the Unix epoch ([Unix.gettimeofday]); only for
    anchoring, never for durations. *)

val anchor : unit -> float * float
(** [(wall, mono)] sampled together at first use: the wall-clock
    instant corresponding to monotonic time [mono]. Stable for the
    process lifetime. *)

val to_wall : float -> float
(** Project a monotonic timestamp onto the Unix epoch via {!anchor}. *)

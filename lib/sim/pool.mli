(** A simulated connection pool.

    As in MySQL (§5.2.1), one transaction runs per connection, so the
    number of connections caps concurrency. Each connection carries a
    virtual clock; work assigned to a connection extends its clock.
    Middle-tier phases that involve every in-flight transaction
    (entangled query evaluation) are barriers: all connections
    synchronize to the latest clock first. *)

type t

val create : connections:int -> t
val connections : t -> int

(** Pick the connection that frees up earliest (deterministic
    tie-break: lowest index). *)
val least_loaded : t -> int

(** Add [work] seconds to connection [conn]'s clock. [work] must be
    non-negative: negative or NaN work raises [Invalid_argument], since
    a clock that ran backwards would break {!now}. *)
val add_work : t -> int -> float -> unit

(** Advance every connection to the maximum clock (barrier), then add
    [work] seconds of centralized middle-tier time to all. *)
val barrier : t -> float -> unit

(** Current simulated time: the maximum connection clock, floored at
    zero. One field read: every write to a clock keeps the maximum. *)
val now : t -> float

(** Advance every connection at least to [time] (e.g. when a new run
    starts at an arrival timestamp later than all current work). *)
val advance_to : t -> float -> unit

(** Reset all clocks to zero. *)
val reset : t -> unit

(** Per-connection clock snapshot (diagnostics). *)
val loads : t -> float array

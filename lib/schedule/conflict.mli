(** Conflict graphs over the committed transactions of a schedule
    (§C.2.1): nodes are committed transaction ids; an edge i -> j means
    an operation of i precedes a conflicting operation of j. Two
    operations conflict when they touch overlapping objects, come from
    different transactions, and at least one is a write. All read
    flavours (plain, grounding, quasi) count as reads. *)

type t

(** Build the graph. Quasi-reads should already be explicit
    ({!History.expand_quasi_reads}) for entangled isolation checks. *)
val of_schedule : History.t -> t

val nodes : t -> int list
val edges : t -> (int * int) list
val has_cycle : t -> bool

(** A topological order of the committed transactions, if acyclic. *)
val topo_order : t -> int list option

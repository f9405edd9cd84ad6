(** Combined-query evaluation — the strategy of the companion paper [6]
    ("Entangled queries: enabling declarative data-driven
    coordination", SIGMOD 2011), which this paper's prototype uses
    (§5.1: "entangled queries are evaluated using the algorithm
    described in [6]").

    Instead of searching over groundings ({!Coordinate}), the query set
    is compiled: postcondition atom *patterns* are matched against head
    atom *patterns* (unification); a complete matching for a connected
    component induces one *combined query* — conceptually the
    conjunction of the member bodies plus the equality constraints of
    the matching — which is then evaluated as an ordinary join over the
    members' groundings. Any result of the combined query is a
    coordinated answer for every member at once.

    The two strategies implement the same declarative semantics
    (Appendix A); a QCheck property in the test suite checks that they
    answer the same queries on random workloads. *)

type outcome = Coordinate.outcome =
  | Answered of Ground.grounding
  | Empty
  | No_partner

(** One combined query: a connected component of the pattern-match
    graph together with a chosen complete matching. *)
type combined = {
  member_ids : int list;
  constraints : ((int * int) * (int * int)) list;
      (** [((qi, post index in qi), (qj, head index in qj))]: the chosen
          provider for each postcondition *)
}

(** Enumerate combined queries: decompose the query set into connected
    components of the pattern-match graph and enumerate complete
    matchings per component, up to [max_matchings] (default 64) each.
    Queries that appear in no combined query are the [No_partner] ones
    (the Appendix B failure criterion — this is where the
    database-independence of the criterion is manifest: matchings are
    computed on patterns, never on data). *)
val compile : ?max_matchings:int -> (int * Ir.t) list -> combined list

(** [evaluate queries] — same interface and outcome classification as
    {!Coordinate.evaluate}, implemented by compiling combined queries
    and joining member groundings. Deterministic. The scheduler does
    not call it: it is the pure algorithm (no metrics, events or fault
    sites), kept as the test oracle for {!Coordinate.evaluate} and as
    the second column of the [ablation-search] bench. *)
val evaluate :
  ?max_matchings:int ->
  (int * Ir.t * Ground.grounding list) list ->
  (int * outcome) list

(** Coordination: answering a set of entangled queries together.

    Given each query's groundings, the evaluator searches for a
    coordinating set (Appendix A): at most one grounding per query such
    that the union of the chosen heads contains every chosen
    postcondition. Queries whose grounding is chosen are answered with
    their own head tuples; the others are classified by the
    database-independent criterion of Appendix B:

    - {!No_partner}: the query was not part of any combined evaluation —
      no query in the set has a head pattern unifying with one of its
      postcondition patterns (transitively closed). The transaction
      must wait and retry.
    - {!Empty}: the query participated in evaluation but the data
      offered no coordinated choice. This counts as success with an
      empty answer; the transaction proceeds. *)

type outcome =
  | Answered of Ground.grounding
  | Empty
  | No_partner

(** [evaluate queries] where each entry is
    [(qid, query, groundings)]. Deterministic: queries are tried in
    list order and groundings in their given order, so replaying the
    same input yields the same answers (the determinism assumption of
    §C.1). [budget] caps backtracking nodes per seed query (default
    200_000). Returns an outcome per qid, same order as the input.
    The fault sites [entangle.coordinate.round_abort] and
    [entangle.coordinate.partner_drop] turn the whole round, or single
    participants, into [No_partner]. *)
val evaluate :
  ?budget:int ->
  (int * Ir.t * Ground.grounding list) list ->
  (int * outcome) list

(** The structural participation check alone (shared with {!Combined},
    exposed for tests): returns the qids that would be [No_partner], in
    input order. Query ids are distinct. *)
val structurally_blocked : (int * Ir.t) list -> int list

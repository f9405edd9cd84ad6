(** Static lint passes over entangled-transaction programs.

    Per-program passes:
    - [unsat-entangled] (error): the grounding body of an entangled
      query is unsatisfiable — no candidate answer can exist;
    - [degenerate-entangled] (error): an answer variable violates range
      restriction (not bound by any body atom), which {!Ent_entangle.Ir.validate}
      rejects at run time;
    - [choose-unsupported] (error): [CHOOSE k] with [k <> 1];
    - [choose-bound] (error): [CHOOSE k] exceeds the static bound on
      distinct candidate answer tuples;
    - [widow-risk] (error/warning): a ROLLBACK after an entangled query,
      or a write to a table an earlier entangled query grounded on —
      both can strand the partner on a dead premise (Requirement C.4);
    - [autocommit-entangle] (warning): an entangled query in a
      non-transactional (-Q style) program.

    Cross-program pass:
    - [potential-deadlock] (error): a cycle in the static lock-order
      graph under Strict 2PL whose consecutive edges belong to
      different programs, conflict in lock mode, and overlap in
      predicate. *)

type input = Matrix.input = {
  source : string;  (** file name or workload label, for findings *)
  program : Ent_core.Program.t;
}

(** All passes over all programs, findings sorted by source position. *)
val run : input list -> Finding.t list

(** Entangled query oracles (Definitions 3.2–3.4).

    An oracle is a process that runs alongside a single entangled
    transaction and answers its entangled queries without touching the
    database. Oracles make an entangled transaction executable *by
    itself*, which is what the consistency assumption (3.5) and
    oracle-serializability (§C.3) are defined against. *)

open Ent_entangle

type t

(** An oracle answering queries from a fixed script, in order. Each
    entry is the set of answer tuples to return ([None] = empty
    answer). Running out of script raises [Failure]. *)
val scripted : Ir.ground_atom list option list -> t

type solo_outcome =
  | Solo_committed
  | Solo_rolled_back
  | Solo_error of string

type solo_result = {
  outcome : solo_outcome;
  valid : bool;
      (** true when every oracle answer was valid (Definition 3.3):
          it corresponded to a grounding of the query on the database
          state at the time it was posed *)
  answers_given : Ir.ground_atom list list;  (** in query order *)
}

(** [run_solo engine program oracle] executes the program to completion
    as the only transaction in the system, taking entangled query
    answers from the oracle, and commits. This is the "valid oracle
    execution" machinery used to test Assumption 3.5 and to replay
    oracle-serializations. *)
val run_solo : Ent_txn.Engine.t -> Program.t -> t -> solo_result

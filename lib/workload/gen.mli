(** The six evaluation workloads (§5.2.1, Appendix D) and the
    coordination structures of the entanglement-complexity experiment.

    Transactional variants ([transactional:true]) are the -T workloads;
    [false] gives the -Q variants (same code, autocommit).

    Entangled workload atoms carry a per-pair tag so that concurrent
    pairs involving the same user cannot cross-match; the tag plays the
    role of the booking context (which trip is being coordinated). *)

type kind =
  | No_social  (** individual booking *)
  | Social  (** booking + friend lookup *)
  | Entangled  (** booking coordinated with a friend via an entangled query *)

(** [text world kind ~uid ~partner ~tag] is the label and the SQL text
    of the transaction {!program} builds. *)
val text : Travel.t -> kind -> uid:int -> partner:int -> tag:int -> string * string

(** [program world ~transactional kind ~uid ~partner ~tag] builds one
    transaction. [partner] is used by [Entangled] only. A negative
    partner produces a permanently partnerless query (used for the
    pending-transactions experiment). *)
val program :
  Travel.t ->
  transactional:bool ->
  kind ->
  uid:int ->
  partner:int ->
  tag:int ->
  Ent_core.Program.t

(** [batch world ~transactional kind ~n ~tag_base] builds [n]
    transactions. For [Entangled], consecutive transactions form
    partner pairs (n should be even) over friend edges of the graph, so
    every transaction can coordinate within the batch — the Figure 6(a)
    setup. *)
val batch :
  Travel.t ->
  transactional:bool ->
  kind ->
  n:int ->
  tag_base:int ->
  Ent_core.Program.t list

(** [lonely world ~n ~tag_base] builds [n] entangled transactions whose
    partners never arrive (the pending transactions of Figure 6(b)). *)
val lonely : Travel.t -> n:int -> tag_base:int -> Ent_core.Program.t list

(** Spoke-hub structure of coordinating-set size [set_size]: one hub
    transaction with [set_size - 1] entangled queries, each entangling
    with a distinct spoke transaction (Figure 6(c)). *)
val spoke_hub : Travel.t -> set_size:int -> tag_base:int -> Ent_core.Program.t list

(** Cyclic structure of size [set_size]: a ring of [set_size]
    transactions where each requires its successor (mod [set_size]) to
    choose the same destination — one coordination component that can
    only be answered all at once (Figure 6(c)). A coordinated choice
    exists as long as the world has more cities than the ring has
    distinct hometowns; otherwise the ring succeeds with an empty
    answer. *)
val cycle : Travel.t -> set_size:int -> tag_base:int -> Ent_core.Program.t list

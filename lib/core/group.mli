(** Entanglement groups: a union-find over task ids, built up as
    entanglement operations happen during a run, and the entanglement
    operation itself ({!entangle}), shared by the batch scheduler and
    the interactive hub. The group of a task is the set of tasks it has
    entangled with, directly or transitively — the unit of group commit
    and group abort (§3.3.3).

    Groups never outlive a run: answers only happen inside a run, and
    at run end every group either commits or aborts entirely, so the
    scheduler resets the structure between runs. *)

type t

val create : unit -> t

(** [join t ids] merges all listed tasks into one group. *)
val join : t -> int list -> unit

(** All known members of [id]'s group in ascending order, including
    [id] itself (a task that never entangled is its own singleton
    group). The list is stored at the group's root: O(|group|) to
    return, independent of how many tasks the structure holds. *)
val members : t -> int -> int list

val same_group : t -> int -> int -> bool

(** True when the task has entangled with at least one other task. *)
val entangled : t -> int -> bool

(** Drop all groups (between runs). *)
val reset : t -> unit

(** [by_group t id_of items] partitions [items] by their group in [t],
    in one pass: groups in order of their first item, each group's
    items in input order. *)
val by_group : t -> ('a -> int) -> 'a list -> 'a list list

(** [entangle t engine ~next_event ~txn_of ?on_entangle answered]
    performs the entanglement operations of one coordination round.
    [answered] lists every answered query as (id, transaction, chosen
    grounding). The queries split into connected components — q is
    linked to q' when one of q's chosen postconditions is q''s chosen
    head — and each component is one operation E, in order of its
    first member:
    - it takes its event id from [next_event ()];
    - with the event log on, each member emits a [Partner_match]
      naming its peers;
    - its ids join one group in [t];
    - every member of the merged group whose transaction handle
      ([txn_of id]) is still live takes the group's smallest id as its
      lock group;
    - the engine logs an [Entangle_group] record;
    - [on_entangle] receives the event id and, per member, its
      transaction and grounding-read tables. *)
val entangle :
  t ->
  Ent_txn.Engine.t ->
  next_event:(unit -> int) ->
  txn_of:(int -> Ent_txn.Engine.txn option) ->
  ?on_entangle:(event:int -> (int * string list) list -> unit) ->
  (int * int * Ent_entangle.Ground.grounding) list ->
  unit

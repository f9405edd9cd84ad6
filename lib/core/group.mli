(** Entanglement groups: a union-find over task ids, built up as
    entanglement operations happen during a run. The group of a task is
    the set of tasks it has entangled with, directly or transitively —
    the unit of group commit and group abort (§3.3.3).

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

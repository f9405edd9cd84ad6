type t = {
  lock_classical_reads : bool;
  lock_grounding_reads : bool;
  group_commit : bool;
}

let full =
  { lock_classical_reads = true; lock_grounding_reads = true; group_commit = true }

let no_group_commit = { full with group_commit = false }
let no_grounding_locks = { full with lock_grounding_reads = false }

let read_uncommitted =
  { lock_classical_reads = false; lock_grounding_reads = false; group_commit = false }

let pp ppf t =
  Format.fprintf ppf "{classical-read-locks=%b; grounding-locks=%b; group-commit=%b}"
    t.lock_classical_reads t.lock_grounding_reads t.group_commit

type levels =
  | All_2pl
  | All_si
  | Mixed

let of_name = function
  | "full" -> Ok (full, All_2pl)
  | "no-group-commit" -> Ok (no_group_commit, All_2pl)
  | "no-grounding-locks" -> Ok (no_grounding_locks, All_2pl)
  | "read-uncommitted" -> Ok (read_uncommitted, All_2pl)
  | "si" | "snapshot" -> Ok (full, All_si)
  | "mixed" -> Ok (full, Mixed)
  | s -> Error (Printf.sprintf "unknown isolation level %S" s)

let level levels n : Ent_txn.Engine.level =
  match levels with
  | All_2pl -> Serializable_2pl
  | All_si -> Snapshot
  | Mixed -> if n land 1 = 1 then Snapshot else Serializable_2pl

(** Everything the [entlint] executable does, behind a library API so
    the CLI paths are testable: loading programs from scripts or
    workload generators, parsing and recording histories, rendering
    findings, computing exit codes. *)

(** Parse a script into lint inputs. Transaction blocks become
    transactional programs labelled [txn-N]; consecutive bare
    statements containing an entangled query become a non-transactional
    [autocommit-N] program (the -Q shape); pure bootstrap groups are
    dropped. Errors carry [source:line:col:]. *)
val inputs_of_script : source:string -> string -> (Lint.input list, string) result

val inputs_of_file : string -> (Lint.input list, string) result
val read_file : string -> (string, string) result

val workload_names : string list

(** Generate the programs of a named evaluation workload (over a small
    travel world) as lint inputs. [n] is the batch/structure size. *)
val workload_inputs : ?n:int -> string -> (Lint.input list, string) result

(** Parse the textual schedule notation ({!Histparse}). *)
val history_of_text : string -> (Ent_schedule.History.t, string) result

(** Execute a script under a {!Ent_schedule.Recorder} and a
    {!Ent_schedule.Certify} certifier; return the schedule of the
    transactions that terminated and the certifier that watched the
    run (for {!Histcheck.check}). [isolation] is an
    {!Ent_core.Isolation.of_name} name ([full] by default): [si] runs
    every submitted program under snapshot isolation, [mixed]
    alternates per submission. *)
val record_script :
  ?isolation:string ->
  ?frequency:int ->
  string ->
  (Ent_schedule.History.t * Ent_schedule.Certify.t, string) result

(** Drop findings agreeing on (source, position, program, code) — the
    [Finding.compare] key — keeping the first of each run; output is
    sorted by that order. Multi-source passes can emit the same
    diagnostic once per source that mentions the programs involved. *)
val dedupe : Finding.t list -> Finding.t list

(** All findings, then a [N errors, M warnings] summary line. *)
val render_findings : Format.formatter -> Finding.t list -> unit

(** [{"findings": [...], "errors": N, "warnings": M}] with each finding
    as {!Finding.to_json}. *)
val findings_json : Finding.t list -> Ent_obs.Json.t

(** [0] clean, [1] error findings (any finding under [strict]). *)
val exit_code : ?strict:bool -> Finding.t list -> int

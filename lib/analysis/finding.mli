(** A lint or checker finding: a coded diagnostic anchored to a source
    position, optionally carrying witness lines (the concrete cycle,
    operation pair, or constraint set that justifies it). *)

type severity =
  | Error
  | Warning

type t = {
  code : string;
  severity : severity;
  source : string;  (** file name or workload label; [""] if none *)
  program : string;  (** program label; [""] if none *)
  at : Ent_sql.Ast.pos;
  message : string;
  witness : string list;
}

val make :
  ?source:string ->
  ?program:string ->
  ?at:Ent_sql.Ast.pos ->
  ?witness:string list ->
  code:string ->
  severity:severity ->
  string ->
  t

val is_error : t -> bool

(** Source file, then position, then program and code. *)
val compare : t -> t -> int

(** Stable machine-readable form mirroring the record: [code],
    [severity], [source], [program], [line], [col], [message],
    [witness]. Field names are a compatibility surface (CI problem
    matchers parse them); never rename. *)
val to_json : t -> Ent_obs.Json.t

(** Renders [source:line:col: severity: [code] (program) message],
    witness lines indented below. *)
val pp : Format.formatter -> t -> unit

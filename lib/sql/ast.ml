(** Abstract syntax of the SQL dialect, including the paper's extended
    entangled-query syntax ([SELECT ... INTO ANSWER ... CHOOSE k]) and
    transaction blocks ([BEGIN TRANSACTION WITH TIMEOUT ...]). *)

open Ent_storage

(** A source position (1-based line and column). Statements parsed from
    text carry the position of their first token; hand-built ASTs use
    {!no_pos}. *)
type pos = {
  line : int;
  col : int;
}

let no_pos = { line = 0; col = 0 }

let pp_pos ppf p =
  if p = no_pos then Format.pp_print_string ppf "-"
  else Format.fprintf ppf "%d:%d" p.line p.col

type binop = Add | Sub | Mul | Div

type agg_fn = Count | Sum | Min | Max | Avg

type expr =
  | Lit of Value.t
  | Col of string option * string  (** optionally qualified column, or a free entangled-query variable *)
  | Host of string  (** host variable [@name] *)
  | Binop of binop * expr * expr
  | Agg of agg_fn * expr
      (** aggregate call. Only valid in the projections of a classical
          SELECT. *)
  | Count_star
      (** [COUNT( * )], the one aggregate without an argument; valid
          where {!Agg} is. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type order_dir = Asc | Desc

type cond =
  | True
  | Cmp of cmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | In_select of expr list * select
      (** [(e1, ..., ek) IN (SELECT ...)]; inside entangled queries this
          is also the variable-binding form. *)
  | In_list of expr * expr list  (** [e IN (v1, v2, ...)] *)
  | Between of expr * expr * expr  (** [e BETWEEN lo AND hi] *)
  | In_answer of expr list * string
      (** [(e1, ..., ek) IN ANSWER R] — a postcondition on the answer
          relation [R]; only meaningful inside entangled queries. *)

and select = {
  distinct : bool;
  projs : proj list;
  from : (string * string) list;  (** (table, alias); alias = table when not renamed *)
  where : cond;
  group_by : expr list;
  order_by : (expr * order_dir) list;
  limit : int option;
}

and proj = {
  pexpr : expr;
  pbind : string option;
      (** [AS @var]: bind this output position into a host variable. A
          bare [@var] projection in a classical SELECT is shorthand for
          [var AS @var] (binding column [var]), as in the paper's
          Appendix D workloads. *)
}

type entangled_select = {
  eprojs : proj list;  (** the transaction's own answer tuple; may contain free variables *)
  into : string;  (** target ANSWER relation *)
  ewhere : cond;  (** mixes grounding conditions and [IN ANSWER] postconditions *)
  choose : int;  (** [CHOOSE k]; the paper always uses 1 *)
}

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list option; values : expr list }
  | Update of { table : string; set : (string * expr) list; where : cond }
  | Delete of { table : string; where : cond }
  | Create_table of { table : string; columns : (string * Schema.col_type) list }
  | Create_index of { table : string; columns : string list; ordered : bool }
  | Drop_table of string
  | Set_var of string * expr  (** [SET @x = expr] *)
  | Entangled of entangled_select
  | Rollback

(** A transaction block. [timeout] is in seconds of simulated time;
    [None] means no timeout (the transaction waits indefinitely for
    partners). Each statement carries the source position of its first
    token ({!no_pos} for hand-built programs), so lint findings and
    error messages can point back into the program text. *)
type program = {
  timeout : float option;
  body : (stmt * pos) list;
}

let statements (p : program) = List.map fst p.body

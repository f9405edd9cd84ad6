(** Tokenizer for the SQL dialect. *)

type token =
  | Ident of string  (** identifier or keyword; keywords are recognized case-insensitively by the parser *)
  | Host_var of string  (** [@name] *)
  | Int_lit of int
  | Str_lit of string  (** single-quoted *)
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Dot
  | Star
  | Plus
  | Minus
  | Slash
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Eof

exception Lex_error of string
(** The message starts with the [line:col] position of the offending
    character. *)

(** [tokenize s] lexes a full input; every token carries the source
    position of its first character. Comments run from [--] to end of
    line. @raise Lex_error on an unterminated string or a stray
    character. *)
val tokenize : string -> (token * Ast.pos) array

(** A text reduced to its shape by the same scan as {!tokenize}. Texts
    whose tokens differ only in literal values have equal keys. *)
type shape = {
  key : string;
      (** every token in order, names spelled verbatim and each literal
          replaced by a tag for its type *)
  lits : token array;  (** the literals ([Int_lit], [Str_lit]) in text order *)
  starts : Ast.pos array;  (** the position of every token that follows a [;], in order *)
}

(** [shape s] scans [s] as {!tokenize} does and raises what it raises. *)
val shape : string -> shape

val pp_token : Format.formatter -> token -> unit

type token =
  | Ident of string
  | Host_var of string
  | Int_lit of int
  | Str_lit of string
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

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec ident_end input i n =
  if i < n && is_ident_char (String.unsafe_get input i) then ident_end input (i + 1) n else i

let rec digits_end input i n =
  if i < n && is_digit (String.unsafe_get input i) then digits_end input (i + 1) n else i

let next_is input n i c = i + 1 < n && String.unsafe_get input (i + 1) = c

(* The body of a string literal held in [input] from [start] to [stop],
   with every doubled quote undoubled. *)
let unescape input start stop =
  let buf = Buffer.create (stop - start) in
  let rec go i =
    if i < stop then begin
      Buffer.add_char buf input.[i];
      go (if input.[i] = '\'' then i + 2 else i + 1)
    end
  in
  go start;
  Buffer.contents buf

(* The one scanning loop. Identifiers and host variables reach [word]
   as the span [start, stop) of their name in [input], so a sink that
   needs no string builds none; every other token reaches [token] with
   its span. Both get the line and column of the token's first
   character as plain ints. *)
let scan input ~word ~token =
  let n = String.length input in
  let error line col fmt =
    Format.kasprintf
      (fun s ->
        raise (Lex_error (Format.asprintf "%a: %s" Ast.pp_pos { Ast.line; col } s)))
      fmt
  in
  (* [bol]: the offset of the current line's first character *)
  let rec go i line bol =
    if i >= n then token Eof i i line (i - bol + 1)
    else
      let col = i - bol + 1 in
      match String.unsafe_get input i with
      | '\n' -> go (i + 1) (line + 1) (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1) line bol
      | '-' when next_is input n i '-' -> comment (i + 2) line bol
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ident_end input (i + 1) n in
        word false i j line col;
        go j line bol
      | '0' .. '9' ->
        let j = digits_end input (i + 1) n in
        token (Int_lit (int_of_string (String.sub input i (j - i)))) i j line col;
        go j line bol
      | '@' ->
        let j = ident_end input (i + 1) n in
        if j = i + 1 then error line col "empty host variable name";
        word true (i + 1) j line col;
        go j line bol
      | '\'' -> str (i + 1) line bol i line col false
      | '<' when next_is input n i '>' -> punct Ne 2 i line bol col
      | '!' when next_is input n i '=' -> punct Ne 2 i line bol col
      | '<' when next_is input n i '=' -> punct Le 2 i line bol col
      | '>' when next_is input n i '=' -> punct Ge 2 i line bol col
      | '(' -> punct Lparen 1 i line bol col
      | ')' -> punct Rparen 1 i line bol col
      | ',' -> punct Comma 1 i line bol col
      | ';' -> punct Semi 1 i line bol col
      | '.' -> punct Dot 1 i line bol col
      | '*' -> punct Star 1 i line bol col
      | '+' -> punct Plus 1 i line bol col
      | '-' -> punct Minus 1 i line bol col
      | '/' -> punct Slash 1 i line bol col
      | '=' -> punct Eq 1 i line bol col
      | '<' -> punct Lt 1 i line bol col
      | '>' -> punct Gt 1 i line bol col
      | c -> error line col "unexpected character %C" c
  and punct tok width i line bol col =
    token tok i (i + width) line col;
    go (i + width) line bol
  and comment i line bol =
    if i < n && String.unsafe_get input i <> '\n' then comment (i + 1) line bol
    else go i line bol
  (* Inside a string literal whose opening quote is at [q], on line
     [ql] and column [qc]; [doubled]: a doubled quote was seen. *)
  and str i line bol q ql qc doubled =
    if i >= n then error ql qc "unterminated string literal"
    else
      match String.unsafe_get input i with
      | '\'' when next_is input n i '\'' -> str (i + 2) line bol q ql qc true
      | '\'' ->
        let body =
          if doubled then unescape input (q + 1) i else String.sub input (q + 1) (i - q - 1)
        in
        token (Str_lit body) q (i + 1) ql qc;
        go (i + 1) line bol
      | '\n' -> str (i + 1) (line + 1) (i + 1) q ql qc doubled
      | _ -> str (i + 1) line bol q ql qc doubled
  in
  go 0 1 0

let tokenize input =
  let tokens = ref [] in
  let add tok line col = tokens := (tok, { Ast.line; col }) :: !tokens in
  scan input
    ~word:(fun host start stop line col ->
      let name = String.sub input start (stop - start) in
      add (if host then Host_var name else Ident name) line col)
    ~token:(fun tok _ _ line col -> add tok line col);
  Array.of_list (List.rev !tokens)

type shape = {
  key : string;
  lits : token array;
  starts : Ast.pos array;
}

(* The shape sink: the key is the text with each literal's span
   replaced by a tag for its type. The tags' first byte is NUL, which
   the scan rejects outside literals and comments, so two texts have
   one key only if they agree outside their literals. *)
let shape input =
  let key = Buffer.create (String.length input) in
  let copied = ref 0 in  (* [input] up to here is in [key] *)
  let lits = ref [] in
  let starts = ref [] in
  let after_semi = ref false in
  let start line col =
    if !after_semi then begin
      starts := { Ast.line; col } :: !starts;
      after_semi := false
    end
  in
  scan input
    ~word:(fun _ _ _ line col -> start line col)
    ~token:(fun tok i j line col ->
      start line col;
      match tok with
      | Int_lit _ | Str_lit _ ->
        Buffer.add_substring key input !copied (i - !copied);
        Buffer.add_string key (match tok with Int_lit _ -> "\000i" | _ -> "\000s");
        copied := j;
        lits := tok :: !lits
      | Semi -> after_semi := true
      | _ -> ());
  Buffer.add_substring key input !copied (String.length input - !copied);
  { key = Buffer.contents key;
    lits = Array.of_list (List.rev !lits);
    starts = Array.of_list (List.rev !starts) }

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "%s" s
  | Host_var s -> Format.fprintf ppf "@%s" s
  | Int_lit i -> Format.fprintf ppf "%d" i
  | Str_lit s -> Format.fprintf ppf "'%s'" s
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Comma -> Format.pp_print_string ppf ","
  | Semi -> Format.pp_print_string ppf ";"
  | Dot -> Format.pp_print_string ppf "."
  | Star -> Format.pp_print_string ppf "*"
  | Plus -> Format.pp_print_string ppf "+"
  | Minus -> Format.pp_print_string ppf "-"
  | Slash -> Format.pp_print_string ppf "/"
  | Eq -> Format.pp_print_string ppf "="
  | Ne -> Format.pp_print_string ppf "<>"
  | Lt -> Format.pp_print_string ppf "<"
  | Le -> Format.pp_print_string ppf "<="
  | Gt -> Format.pp_print_string ppf ">"
  | Ge -> Format.pp_print_string ppf ">="
  | Eof -> Format.pp_print_string ppf "<eof>"

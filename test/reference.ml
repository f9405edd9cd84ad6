(* A reference for Appendix C's isolation requirements, written to be
   obviously right rather than fast: each requirement is transcribed
   directly as a scan over every pair (or triple) of positions of the
   schedule with quasi-reads made explicit. It exists only to be
   compared against [Ent_schedule.Certify], whose violation codes it
   reproduces. Transactions are judged under Strict 2PL (no snapshot
   levels). *)

open Ent_schedule
open History

let access = function
  | Read (i, x) | Ground_read (i, x) | Quasi_read (i, x) -> Some (i, x, false)
  | Write (i, x) -> Some (i, x, true)
  | Entangle _ | Commit _ | Abort _ -> None

let read_of op =
  match access op with
  | Some (i, x, false) -> Some (i, x)
  | Some (_, _, true) | None -> None

let write_of op =
  match access op with
  | Some (i, x, true) -> Some (i, x)
  | Some (_, _, false) | None -> None

let exists_between lo hi f =
  let rec go k = k < hi && (f k || go (k + 1)) in
  go lo

(* C.2: an edge i -> j for every pair of operations of distinct
   committed transactions on overlapping objects, i's first, at least
   one a write; the schedule fails when some transaction reaches
   itself. *)
let conflict_cycle ops committed =
  let n = Array.length ops in
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      match access ops.(a), access ops.(b) with
      | Some (i, x, wa), Some (j, y, wb)
        when i <> j && (wa || wb) && overlaps x y && List.mem i committed
             && List.mem j committed ->
        edges := (i, j) :: !edges
      | _ -> ()
    done
  done;
  let succs u =
    List.filter_map (fun (a, b) -> if a = u then Some b else None) !edges
  in
  let reaches_self u =
    let seen = Hashtbl.create 8 in
    let rec from v = List.exists (fun w -> w = u || visit w) (succs v)
    and visit w =
      if Hashtbl.mem seen w then false
      else begin
        Hashtbl.add seen w ();
        from w
      end
    in
    from u
  in
  List.exists reaches_self committed

(* C.3: a committed transaction reads an object after an aborted
   transaction wrote an overlapping one. *)
let read_from_aborted ops committed aborted =
  let n = Array.length ops in
  exists_between 0 n (fun a ->
      match write_of ops.(a) with
      | Some (i, x) when List.mem i aborted ->
        exists_between (a + 1) n (fun b ->
            match read_of ops.(b) with
            | Some (j, y) -> j <> i && List.mem j committed && overlaps x y
            | None -> false)
      | _ -> false)

(* C.4: an entanglement operation joins an aborted and a committed
   transaction. *)
let widowed ops committed aborted =
  Array.exists
    (function
      | Entangle (_, ps) ->
        List.exists (fun i -> List.mem i aborted) ps
        && List.exists (fun i -> List.mem i committed) ps
      | _ -> false)
    ops

(* Figure 3b: i quasi-reads x; the first later write of an overlapping
   object by another transaction invalidates it; i then reads (plainly,
   grounding or quasi) an object overlapping x. *)
let unrepeatable_quasi_read ops =
  let n = Array.length ops in
  exists_between 0 n (fun a ->
      match ops.(a) with
      | Quasi_read (i, x) -> (
        let rec first_write b =
          if b >= n then None
          else
            match write_of ops.(b) with
            | Some (j, y) when j <> i && overlaps x y -> Some b
            | _ -> first_write (b + 1)
        in
        match first_write (a + 1) with
        | None -> false
        | Some b ->
          exists_between (b + 1) n (fun c ->
              match read_of ops.(c) with
              | Some (j, y) -> j = i && overlaps x y
              | None -> false))
      | _ -> false)

(* The violation codes of a schedule, sorted. *)
let codes schedule =
  let ops = Array.of_list (expand_quasi_reads schedule) in
  let committed = History.committed schedule in
  let aborted = History.aborted schedule in
  List.filter_map
    (fun (code, violated) -> if violated then Some code else None)
    [ ("conflict-cycle", conflict_cycle ops committed);
      ("read-from-aborted", read_from_aborted ops committed aborted);
      ("unrepeatable-quasi-read", unrepeatable_quasi_read ops);
      ("widowed", widowed ops committed aborted) ]

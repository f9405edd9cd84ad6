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

(* C.3: a committed transaction reads from an aborted one: it reads an
   object after the aborted transaction wrote an overlapping one and
   before that transaction's abort. A read after the abort sees the
   value the abort restored. *)
let read_from_aborted ops committed aborted =
  let n = Array.length ops in
  let abort_of i =
    let rec go k =
      if k >= n then n
      else match ops.(k) with Abort j when j = i -> k | _ -> go (k + 1)
    in
    go 0
  in
  exists_between 0 n (fun a ->
      match write_of ops.(a) with
      | Some (i, x) when List.mem i aborted ->
        exists_between (a + 1) (abort_of i) (fun b ->
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

(* A reference for the lock manager's waits-for queries, computed with
   no index, over every entry of a [Lock.dump]. A
   waiter waits for every holder of another owner whose mode is
   incompatible with its request, and for every earlier incompatible
   waiter. [group] is the caller's own copy of the entanglement tags;
   two transactions of one group are one owner. *)
module Locks = struct
  module Lock = Ent_txn.Lock

  let compatible a b =
    match a, b with
    | Lock.IS, (Lock.IS | Lock.IX | Lock.S)
    | Lock.IX, (Lock.IS | Lock.IX)
    | Lock.S, (Lock.IS | Lock.S) -> true
    | _ -> false

  let same_owner group a b =
    a = b
    ||
    match group a, group b with
    | Some ga, Some gb -> ga = gb
    | _ -> false

  let blockers dump ~group ~txn =
    List.concat_map
      (fun (_, holders, queue) ->
        match List.assoc_opt txn queue with
        | None -> []
        | Some need ->
          let rec earlier = function
            | [] -> []
            | (o, _) :: _ when o = txn -> []
            | (o, m) :: rest ->
              if compatible need m then earlier rest else o :: earlier rest
          in
          List.filter_map
            (fun (o, m) ->
              if same_owner group o txn || compatible need m then None
              else Some o)
            holders
          @ earlier queue)
      dump
    |> List.sort_uniq Int.compare

  let waits dump ~txn =
    List.filter_map
      (fun (resource, _, queue) ->
        Option.map (fun m -> (resource, m)) (List.assoc_opt txn queue))
      dump
    |> List.sort compare

  let is_waiting dump ~txn = waits dump ~txn <> []

  (* Does [txn] reach itself along blocker edges? *)
  let on_cycle dump ~group ~txn =
    let seen = Hashtbl.create 8 in
    let rec reaches node =
      List.exists
        (fun n ->
          n = txn
          || (not (Hashtbl.mem seen n))
             && begin
               Hashtbl.add seen n ();
               reaches n
             end)
        (blockers dump ~group ~txn:node)
    in
    reaches txn

  (* [cycle] starts at [txn], each member blocks on the next, and the
     last blocks on [txn]. *)
  let is_cycle dump ~group ~txn cycle =
    let edge a b = List.mem b (blockers dump ~group ~txn:a) in
    let rec links = function
      | a :: (b :: _ as rest) -> edge a b && links rest
      | [ last ] -> edge last txn
      | [] -> false
    in
    match cycle with
    | first :: _ -> first = txn && links cycle
    | [] -> false

  (* The lock manager as it was before entries were keyed by holder:
     one unsharded table of entries whose holders are a plain list,
     newest first, with [request], [promote_waiters] and [release_all]
     transcribed from that version. Every operation walks the holder
     list. *)
  module Model = struct
    let covers held want =
      match held, want with
      | Lock.X, _ -> true
      | Lock.S, (Lock.S | Lock.IS) -> true
      | Lock.IX, (Lock.IX | Lock.IS) -> true
      | Lock.IS, Lock.IS -> true
      | _ -> false

    let lub a b =
      if covers a b then a
      else if covers b a then b
      else
        match a, b with
        | Lock.IS, Lock.IX | Lock.IX, Lock.IS -> Lock.IX
        | Lock.IS, Lock.S | Lock.S, Lock.IS -> Lock.S
        | _ -> Lock.X

    type entry = {
      mutable holders : (int * Lock.mode) list;
      mutable queue : (int * Lock.mode) list;
    }

    type t = {
      entries : (Lock.resource, entry) Hashtbl.t;
      owned : (int, Lock.resource list) Hashtbl.t;
      groups : (int, int) Hashtbl.t;
    }

    let create () =
      { entries = Hashtbl.create 8; owned = Hashtbl.create 8; groups = Hashtbl.create 8 }

    let set_group t ~txn ~group = Hashtbl.replace t.groups txn group

    let conflicts t txn need (o, m) =
      (not (compatible need m)) && not (same_owner (Hashtbl.find_opt t.groups) o txn)

    let grantable t entry txn need =
      not (List.exists (conflicts t txn need) entry.holders)

    let note_owned t txn resource =
      let rs = Option.value ~default:[] (Hashtbl.find_opt t.owned txn) in
      if not (List.mem resource rs) then Hashtbl.replace t.owned txn (resource :: rs)

    let request t ~txn resource mode =
      let entry =
        match Hashtbl.find_opt t.entries resource with
        | Some e -> e
        | None ->
          let e = { holders = []; queue = [] } in
          Hashtbl.add t.entries resource e;
          e
      in
      let held = List.assoc_opt txn entry.holders in
      let need =
        match held with
        | Some h -> lub h mode
        | None -> mode
      in
      match held with
      | Some h when covers h mode -> Lock.Granted
      | _ ->
        if List.exists (fun (o, _) -> o = txn) entry.queue then begin
          entry.queue <-
            List.map
              (fun (o, m) -> if o = txn then (o, lub m need) else (o, m))
              entry.queue;
          Lock.Waiting
        end
        else if grantable t entry txn need && (entry.queue = [] || held <> None)
        then begin
          entry.holders <-
            (txn, need) :: List.filter (fun (o, _) -> o <> txn) entry.holders;
          note_owned t txn resource;
          Lock.Granted
        end
        else begin
          entry.queue <- entry.queue @ [ (txn, need) ];
          note_owned t txn resource;
          Lock.Waiting
        end

    let promote_waiters t entry =
      let granted = ref [] in
      let rec go () =
        match entry.queue with
        | (txn, need) :: rest when grantable t entry txn need ->
          entry.holders <-
            (txn, need) :: List.filter (fun (o, _) -> o <> txn) entry.holders;
          entry.queue <- rest;
          granted := txn :: !granted;
          go ()
        | _ -> ()
      in
      go ();
      !granted

    let release_all t ~txn =
      let resources = Option.value ~default:[] (Hashtbl.find_opt t.owned txn) in
      Hashtbl.remove t.owned txn;
      Hashtbl.remove t.groups txn;
      List.concat_map
        (fun resource ->
          match Hashtbl.find_opt t.entries resource with
          | None -> []
          | Some entry ->
            entry.holders <- List.filter (fun (o, _) -> o <> txn) entry.holders;
            entry.queue <- List.filter (fun (o, _) -> o <> txn) entry.queue;
            let woken = promote_waiters t entry in
            if entry.holders = [] && entry.queue = [] then
              Hashtbl.remove t.entries resource;
            woken)
        resources
      |> List.sort_uniq Int.compare

    let held t ~txn resource =
      Option.bind (Hashtbl.find_opt t.entries resource) (fun e ->
          List.assoc_opt txn e.holders)

    (* Holders sorted by txn, entries by resource, as [Lock.dump]. *)
    let dump t =
      Hashtbl.fold
        (fun resource e acc ->
          (resource, List.sort compare e.holders, e.queue) :: acc)
        t.entries []
      |> List.sort compare
  end
end

(* The Appendix B structural participation check with no index below
   the signature: every head probes every post of its (rel, arity).
   The reference for [Coordinate.structurally_blocked], which probes
   only posts that agree with the head at one constant position. The
   scratch tables are module-level: tests call it from one domain. *)
module Structural = struct
  module Ir = Ent_entangle.Ir

  let sig_of (a : Ir.atom) = (a.rel, List.length a.args)

  let posts_by_sig :
      (string * int, (int * Ir.atom * int ref) list ref) Hashtbl.t =
    Hashtbl.create 64

  let sb_alive : (int, bool) Hashtbl.t = Hashtbl.create 64
  let sb_heads : (int, Ir.atom list) Hashtbl.t = Hashtbl.create 64

  let structurally_blocked queries =
    Hashtbl.clear posts_by_sig;
    Hashtbl.clear sb_alive;
    Hashtbl.clear sb_heads;
    (* posts bucketed by signature, as (owner qid, support count ref) *)
    let bucket s =
      match Hashtbl.find_opt posts_by_sig s with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add posts_by_sig s b;
        b
    in
    List.iter
      (fun (qid, (q : Ir.t)) ->
        Hashtbl.replace sb_alive qid true;
        Hashtbl.replace sb_heads qid q.head;
        List.iter
          (fun post ->
            let b = bucket (sig_of post) in
            b := (qid, post, ref 0) :: !b)
          q.post)
      queries;
    (* initial support: every (post, head) unifiable pair, same-signature
       candidates only *)
    List.iter
      (fun (_, (q : Ir.t)) ->
        List.iter
          (fun head ->
            match Hashtbl.find_opt posts_by_sig (sig_of head) with
            | None -> ()
            | Some b ->
              List.iter
                (fun (_, post, count) ->
                  if Ir.unifiable post head then incr count)
                !b)
          q.head)
      queries;
    let worklist = Queue.create () in
    let kill qid =
      if Hashtbl.find sb_alive qid then begin
        Hashtbl.replace sb_alive qid false;
        Queue.add qid worklist
      end
    in
    Hashtbl.iter
      (fun _ b ->
        List.iter (fun (qid, _, count) -> if !count = 0 then kill qid) !b)
      posts_by_sig;
    while not (Queue.is_empty worklist) do
      let dead = Queue.pop worklist in
      List.iter
        (fun head ->
          match Hashtbl.find_opt posts_by_sig (sig_of head) with
          | None -> ()
          | Some b ->
            List.iter
              (fun (qid, post, count) ->
                if Hashtbl.find sb_alive qid && Ir.unifiable post head then begin
                  decr count;
                  if !count = 0 then kill qid
                end)
              !b)
        (Hashtbl.find sb_heads dead)
    done;
    List.filter_map
      (fun (qid, _) -> if Hashtbl.find sb_alive qid then None else Some qid)
      queries
end

(* Entanglement groups as a bare union-find whose [members] folds the
   whole table: the reference for [Ent_core.Group], which keeps each
   group's member list at its root. *)
module Group = struct
  type t = { parent : (int, int) Hashtbl.t }

  let create () = { parent = Hashtbl.create 32 }

  let rec find t x =
    match Hashtbl.find_opt t.parent x with
    | None ->
      Hashtbl.replace t.parent x x;
      x
    | Some p when p = x -> x
    | Some p ->
      let root = find t p in
      Hashtbl.replace t.parent x root;
      root

  let join t ids =
    match ids with
    | [] -> ()
    | first :: rest ->
      let root = find t first in
      List.iter (fun id -> Hashtbl.replace t.parent (find t id) root) rest

  let members t id =
    let root = find t id in
    let out =
      Hashtbl.fold
        (fun x _ acc -> if find t x = root then x :: acc else acc)
        t.parent []
    in
    let out = if List.mem id out then out else id :: out in
    List.sort_uniq Int.compare out

  let same_group t a b = find t a = find t b
  let entangled t id = List.length (members t id) > 1
  let reset t = Hashtbl.reset t.parent
end

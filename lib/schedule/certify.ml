type violation = {
  code : string;
  detail : string;
}

type stats = {
  ops : int;
  txns : int;
  committed : int;
  aborted : int;
  edges : int;
  quasi_reads : int;
}

let max_violations = 200

(* --- per-object access index ---

   For conflict derivation we never need the operations themselves,
   only, per (object, transaction, read/write), the first and last
   position — a new operation at position p conflicts with a prior
   span iff [first < p] (edge towards the new op) or [last > p]
   (edge from it; possible for retroactively inserted quasi-reads).
   Objects are bucketed by group key, split into exact rows and
   whole-table spans; [Named] objects get their own key namespace
   since they never overlap tables. *)

type span = {
  mutable first : int;
  mutable last : int;
}

type side = {
  r : (int, span) Hashtbl.t;  (* txn -> read span *)
  w : (int, span) Hashtbl.t;  (* txn -> write span *)
}

type group = {
  rows : (int, side) Hashtbl.t;  (* row id -> spans *)
  whole : side;  (* table-level operations (scans, DDL) *)
  agg : side;  (* union of all row operations, for whole-op conflicts *)
}

type status =
  | Committed
  | Aborted

(* A discovered conflict (a, b): a's operation precedes b's and at
   least one side writes. It enters the committed conflict graph only
   once both endpoints commit. *)
type edge_state =
  | Pending
  | Active
  | Dead

type edge = {
  mutable state : edge_state;
  ewitness : string;
  (* true while every conflict folded into this edge is a pure
     read-write antidependency (earlier read, later write). A cycle of
     such edges among snapshot transactions is write-skew — permitted
     by SI, reported as a named anomaly rather than a violation. *)
  mutable rw_only : bool;
}

type ginfo = {
  mutable committed_member : int option;
  mutable aborted_member : int option;
  mutable g_reported : bool;
}

type quasi = {
  qtxn : int;
  qpos : int;
  qobj : History.obj;
  mutable armed : int;  (* position of the first invalidating write; -1 = none *)
}

type t = {
  mutable pos : int;
  mutable op_count : int;
  mutable quasi_count : int;
  seen_txns : (int, unit) Hashtbl.t;
  status : (int, status) Hashtbl.t;
  post_terminal_reported : (int, unit) Hashtbl.t;
  groups : (string, group) Hashtbl.t;
  (* conflicts *)
  potential : (int * int, edge) Hashtbl.t;
  incident : (int, (int * int) list ref) Hashtbl.t;
  succs : (int, int list ref) Hashtbl.t;
  mutable active_edges : int;
  (* grounding reads awaiting their entanglement, per txn: (pos, obj) *)
  ground_buffer : (int, (int * History.obj) list ref) Hashtbl.t;
  (* quasi-read stability tracking *)
  quasi_by_key : (string, quasi list ref) Hashtbl.t;
  quasi_by_txn_key : (int * string, quasi list ref) Hashtbl.t;
  (* every write, per transaction (dirty reads, lost updates) and per
     group key (newest first; what a late quasi-read is invalidated by) *)
  writes_of : (int, (History.obj * int) list ref) Hashtbl.t;
  writes_by_key : (string, (int * int * History.obj) list ref) Hashtbl.t;
  tainted : (int, string) Hashtbl.t;  (* committed-to-be readers of aborted writes *)
  (* entanglement groups *)
  ginfos : (int, ginfo) Hashtbl.t;
  groups_of_txn : (int, int list ref) Hashtbl.t;
  (* mixed-isolation tracking: declared level per transaction (2PL
     when absent), the snapshot anchor position for SI transactions
     (explicit via Ev_begin, else the first data operation), and
     terminal positions: commits for first-committer-wins auditing,
     aborts for telling a retroactive read of an aborted write from
     one after the abort *)
  levels : (int, Ent_txn.Engine.level) Hashtbl.t;
  begin_pos : (int, int) Hashtbl.t;
  end_pos : (int, int) Hashtbl.t;
  mutable violations : violation list;  (* newest first *)
  mutable violation_count : int;
  seen_violations : (string, unit) Hashtbl.t;
  (* SI-permitted anomalies: named, reported, but not failing *)
  mutable anomaly_list : violation list;  (* newest first *)
  mutable anomaly_count : int;
}

let create () =
  {
    pos = 0;
    op_count = 0;
    quasi_count = 0;
    seen_txns = Hashtbl.create 64;
    status = Hashtbl.create 64;
    post_terminal_reported = Hashtbl.create 8;
    groups = Hashtbl.create 16;
    potential = Hashtbl.create 256;
    incident = Hashtbl.create 64;
    succs = Hashtbl.create 64;
    active_edges = 0;
    ground_buffer = Hashtbl.create 32;
    quasi_by_key = Hashtbl.create 16;
    quasi_by_txn_key = Hashtbl.create 64;
    writes_of = Hashtbl.create 64;
    writes_by_key = Hashtbl.create 16;
    tainted = Hashtbl.create 8;
    ginfos = Hashtbl.create 32;
    groups_of_txn = Hashtbl.create 64;
    levels = Hashtbl.create 16;
    begin_pos = Hashtbl.create 16;
    end_pos = Hashtbl.create 64;
    violations = [];
    violation_count = 0;
    seen_violations = Hashtbl.create 8;
    anomaly_list = [];
    anomaly_count = 0;
  }

let violate t code detail =
  let key = code ^ "\x00" ^ detail in
  if
    t.violation_count < max_violations
    && not (Hashtbl.mem t.seen_violations key)
  then begin
    Hashtbl.replace t.seen_violations key ();
    t.violations <- { code; detail } :: t.violations;
    t.violation_count <- t.violation_count + 1
  end

let anomaly t code detail =
  let key = "a\x00" ^ code ^ "\x00" ^ detail in
  if
    t.anomaly_count < max_violations
    && not (Hashtbl.mem t.seen_violations key)
  then begin
    Hashtbl.replace t.seen_violations key ();
    t.anomaly_list <- { code; detail } :: t.anomaly_list;
    t.anomaly_count <- t.anomaly_count + 1
  end

let violations t = List.rev t.violations
let anomalies t = List.rev t.anomaly_list
let ok t = t.violations = []

let set_level t txn level = Hashtbl.replace t.levels txn level

let is_si t txn =
  Hashtbl.find_opt t.levels txn = Some Ent_txn.Engine.Snapshot

let obj_str x = Format.asprintf "%a" History.pp_obj x

(* Group keys: tables and named objects live in disjoint namespaces
   (a [Named x] never overlaps a [Table x]). *)
let key_of_obj = function
  | History.Named s -> "n:" ^ s
  | History.Table tbl | History.Row (tbl, _) -> "t:" ^ tbl

let new_side () = { r = Hashtbl.create 8; w = Hashtbl.create 8 }

let group_for t key =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
    let g = { rows = Hashtbl.create 16; whole = new_side (); agg = new_side () } in
    Hashtbl.add t.groups key g;
    g

let side_for_row g row =
  match Hashtbl.find_opt g.rows row with
  | Some s -> s
  | None ->
    let s = new_side () in
    Hashtbl.add g.rows row s;
    s

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

let touch tbl txn p =
  match Hashtbl.find_opt tbl txn with
  | Some s ->
    if p < s.first then s.first <- p;
    if p > s.last then s.last <- p
  | None -> Hashtbl.add tbl txn { first = p; last = p }

(* --- conflict edges and incremental cycle detection --- *)

let incident_of t txn =
  match Hashtbl.find_opt t.incident txn with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.incident txn l;
    l

let succs_of t txn =
  match Hashtbl.find_opt t.succs txn with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.succs txn l;
    l

(* On activation of a -> b: a path b ->* a in the committed graph
   closes a cycle through the new edge. DFS with parents reconstructs
   it for the witness. A cycle whose members all run under snapshot
   isolation and whose edges are all pure read-write antidependencies
   is write-skew — SI permits it, so it is reported as the named
   anomaly [si-write-skew] instead of failing certification. *)
let check_cycle t a b witness =
  let parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec dfs u =
    if u = a then true
    else
      List.exists
        (fun v ->
          if Hashtbl.mem parent v then false
          else begin
            Hashtbl.replace parent v u;
            dfs v
          end)
        !(succs_of t u)
  in
  Hashtbl.replace parent b b;
  if dfs b then begin
    let rec collect acc u = if u = b then u :: acc else collect (u :: acc) (Hashtbl.find parent u) in
    let path = collect [] a (* b ... a *) in
    let detail =
      Printf.sprintf "%s -> T%d (closing conflict: %s)"
        (String.concat " -> " (List.map (fun i -> "T" ^ string_of_int i) path))
        b witness
    in
    let rec cycle_edges = function
      | u :: (v :: _ as rest) -> (u, v) :: cycle_edges rest
      | [ last ] -> [ (last, b) ]
      | [] -> []
    in
    let all_rw =
      List.for_all
        (fun uv ->
          match Hashtbl.find_opt t.potential uv with
          | Some e -> e.rw_only
          | None -> false)
        (cycle_edges path)
    in
    if all_rw && List.for_all (is_si t) path then
      anomaly t "si-write-skew" detail
    else violate t "conflict-cycle" detail
  end

let activate t (a, b) (e : edge) =
  e.state <- Active;
  t.active_edges <- t.active_edges + 1;
  let s = succs_of t a in
  s := b :: !s;
  check_cycle t a b e.ewitness

let add_edge t ?(rw = false) a b witness =
  if a <> b then begin
    match Hashtbl.find_opt t.potential (a, b) with
    | Some e -> e.rw_only <- e.rw_only && rw
    | None -> (
      let status x = Hashtbl.find_opt t.status x in
      match status a, status b with
      | Some Aborted, _ | _, Some Aborted -> ()
      | sa, sb ->
        let e = { state = Pending; ewitness = witness; rw_only = rw } in
        Hashtbl.add t.potential (a, b) e;
        if sa = Some Committed && sb = Some Committed then activate t (a, b) e
        else begin
          (* park on the not-yet-committed endpoint(s) *)
          if sa = None then begin
            let l = incident_of t a in
            l := (a, b) :: !l
          end;
          if sb = None then begin
            let l = incident_of t b in
            l := (a, b) :: !l
          end
        end)
  end

(* --- data operations --- *)

type rw =
  | R  (* plain read *)
  | G  (* grounding read *)
  | Q  (* quasi-read (retroactive) *)
  | W

let is_read = function
  | R | G | Q -> true
  | W -> false

(* Scan one span table of potential conflict partners: every other
   transaction whose span starts before [p] conflicts towards the new
   operation, every one extending past [p] conflicts away from it.
   [other_is_write] says whether [spans] is a write-span table and
   [new_is_write] whether the new operation writes; a conflict is a
   pure read-write antidependency exactly when the earlier side reads
   and the later writes. A read that falls between an aborted
   writer's write and its abort reads from it; the abort judges the
   reads that arrived before it (see [terminal]), so only a read
   placed retroactively before an abort that already happened (a
   quasi-read, a snapshot read) is tainted here. A read after the
   abort sees the value the engine restored. *)
let scan_spans t ~txn ~p ~wit_new ~other_is_write ~new_is_write ~taint_reads
    spans =
  Hashtbl.iter
    (fun j (s : span) ->
      if j <> txn then begin
        if s.first < p then
          add_edge t ~rw:((not other_is_write) && new_is_write) j txn
            (Printf.sprintf "T%d@%d before %s" j s.first wit_new);
        if s.last > p then
          add_edge t ~rw:((not new_is_write) && other_is_write) txn j
            (Printf.sprintf "%s before T%d@%d" wit_new j s.last);
        if
          taint_reads && other_is_write && s.first < p
          && Hashtbl.find_opt t.status j = Some Aborted
          && (match Hashtbl.find_opt t.end_pos j with
             | Some aborted_at -> aborted_at > p
             | None -> false)
          && not (Hashtbl.mem t.tainted txn)
        then
          Hashtbl.replace t.tainted txn
            (Printf.sprintf "read before aborted T%d's abort (%s)" j wit_new)
      end)
    spans

let unrepeatable t q p =
  violate t "unrepeatable-quasi-read"
    (Printf.sprintf
       "T%d quasi-read %s@%d, a foreign write at %d invalidated it, and T%d \
        read it again at %d"
       q.qtxn (obj_str q.qobj) q.qpos q.armed q.qtxn p)

let data_op t kind txn obj p =
  t.op_count <- t.op_count + 1;
  Hashtbl.replace t.seen_txns txn ();
  (* C.1 validity: terminated transactions stay terminated. *)
  (match Hashtbl.find_opt t.status txn with
  | Some _ when not (Hashtbl.mem t.post_terminal_reported txn) ->
    Hashtbl.replace t.post_terminal_reported txn ();
    violate t "post-terminal"
      (Printf.sprintf "T%d continues after its terminal operation (%s)" txn
         (obj_str obj))
  | _ -> ());
  (* C.1 validity: nothing but grounding reads between a grounding
     read and its entanglement. Quasi-reads are retroactive inserts,
     not actions of [txn], so they are exempt. *)
  (match kind with
  | R | W ->
    (match Hashtbl.find_opt t.ground_buffer txn with
    | Some l when !l <> [] ->
      violate t "ground-gap"
        (Printf.sprintf
           "T%d performs a read or write between a grounding read and its \
            entanglement (%s)"
           txn (obj_str obj))
    | _ -> ())
  | G | Q -> ());
  let key = key_of_obj obj in
  let g = group_for t key in
  let is_w = not (is_read kind) in
  let wit_new =
    Printf.sprintf "%s%d(%s)@%d" (if is_w then "W" else "R") txn (obj_str obj) p
  in
  let scan ?(taint = false) spans =
    scan_spans t ~txn ~p ~wit_new ~other_is_write:taint ~new_is_write:is_w
      ~taint_reads:(taint && is_read kind)
      spans
  in
  (match obj with
  | History.Row (_, row) ->
    let s = side_for_row g row in
    (* writes conflict with everything on the row and with table-level
       spans; reads only with writes *)
    scan ~taint:true s.w;
    scan ~taint:true g.whole.w;
    if is_w then begin
      scan s.r;
      scan g.whole.r
    end;
    let dest = if is_w then s.w else s.r in
    touch dest txn p;
    touch (if is_w then g.agg.w else g.agg.r) txn p
  | History.Table _ | History.Named _ ->
    scan ~taint:true g.whole.w;
    scan ~taint:true g.agg.w;
    if is_w then begin
      scan g.whole.r;
      scan g.agg.r
    end;
    touch (if is_w then g.whole.w else g.whole.r) txn p);
  if is_w then begin
    push t.writes_of txn (obj, p);
    push t.writes_by_key key (p, txn, obj);
    (* arm quasi-reads this write invalidates *)
    match Hashtbl.find_opt t.quasi_by_key key with
    | Some records ->
      List.iter
        (fun q ->
          if q.armed < 0 && q.qtxn <> txn && q.qpos < p
             && History.overlaps q.qobj obj
          then q.armed <- p)
        !records
    | None -> ()
  end
  else begin
    (* a read of an object whose quasi-read was invalidated earlier —
       except under snapshot isolation, where every read of the
       transaction comes from the same begin-stamp snapshot and a
       foreign write cannot make a re-read observe a different state *)
    match Hashtbl.find_opt t.quasi_by_txn_key (txn, key) with
    | Some records when not (is_si t txn) ->
      List.iter
        (fun q ->
          if q.armed >= 0 && q.armed < p && History.overlaps q.qobj obj then
            unrepeatable t q p)
        !records
    | Some _ | None -> ()
  end

(* A quasi-read of [obj] by [txn] at [p]. Expanded at its entanglement,
   it lands retroactively at the grounding read's position, so writes
   and re-reads may already lie after it: arm it with the first foreign
   overlapping write after [p] and flag [txn]'s reads past that write.
   Later writes and reads are handled as they arrive by [data_op]. *)
let quasi_read t txn obj p =
  t.quasi_count <- t.quasi_count + 1;
  let q = { qtxn = txn; qpos = p; qobj = obj; armed = -1 } in
  let key = key_of_obj obj in
  push t.quasi_by_key key q;
  push t.quasi_by_txn_key (txn, key) q;
  (match Hashtbl.find_opt t.writes_by_key key with
  | Some log ->
    let rec first found = function
      | (wp, j, y) :: older when wp > p ->
        first (if j <> txn && History.overlaps obj y then wp else found) older
      | _ -> found
    in
    q.armed <- first (-1) !log
  | None -> ());
  if q.armed >= 0 && not (is_si t txn) then begin
    let g = group_for t key in
    let last (s : side) =
      match Hashtbl.find_opt s.r txn with
      | Some sp -> sp.last
      | None -> -1
    in
    let last_read =
      match obj with
      | History.Row (_, row) ->
        max (last g.whole)
          (match Hashtbl.find_opt g.rows row with
          | Some s -> last s
          | None -> -1)
      | History.Table _ | History.Named _ -> max (last g.whole) (last g.agg)
    in
    if last_read > q.armed then unrepeatable t q last_read
  end;
  data_op t Q txn obj p

let buffer_of t txn =
  match Hashtbl.find_opt t.ground_buffer txn with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.ground_buffer txn l;
    l

(* --- terminal operations --- *)

let groups_of t txn =
  match Hashtbl.find_opt t.groups_of_txn txn with
  | Some l -> !l
  | None -> []

let check_widow t event (gi : ginfo) =
  match gi.committed_member, gi.aborted_member with
  | Some c, Some a when not gi.g_reported ->
    gi.g_reported <- true;
    violate t "widowed"
      (Printf.sprintf "entanglement E%d joins T%d (aborted) with T%d (committed)"
         event a c)
  | _ -> ()

let terminal t txn ~committed =
  Hashtbl.replace t.seen_txns txn ();
  (match Hashtbl.find_opt t.status txn with
  | Some _ ->
    violate t "double-terminal"
      (Printf.sprintf "T%d has several terminal operations" txn)
  | None -> ());
  Hashtbl.replace t.status txn (if committed then Committed else Aborted);
  Hashtbl.replace t.end_pos txn t.pos;
  (* C.1: no commit with an unanswered grounding read *)
  (match Hashtbl.find_opt t.ground_buffer txn with
  | Some l when !l <> [] ->
    if committed then
      violate t "unanswered-ground"
        (Printf.sprintf "T%d commits with an unanswered grounding read" txn);
    l := []
  | _ -> ());
  if committed then begin
    (* C.3: tainted readers of aborted writes become violations now.
       For a snapshot reader the same evidence means its MVCC read
       observed an uncommitted (later aborted) version — a distinct
       defect, since version visibility should have hidden it. *)
    (match Hashtbl.find_opt t.tainted txn with
    | Some why ->
      violate t
        (if is_si t txn then "si-read-uncommitted" else "read-from-aborted")
        (Printf.sprintf "T%d committed after it %s" txn why)
    | None -> ());
    (* First-committer-wins audit: a snapshot transaction that commits
       a write to a row some other transaction committed after this
       one's snapshot was taken is a lost update the engine should
       have aborted. *)
    if is_si t txn then begin
      let my_begin =
        Option.value ~default:0 (Hashtbl.find_opt t.begin_pos txn)
      in
      let audit obj (w_spans : (int, span) Hashtbl.t) =
        Hashtbl.iter
          (fun j (_ : span) ->
            (* entanglement partners commit as one unit and share lock
               ownership; their interleaved writes are not lost
               updates *)
            let same_group =
              List.exists
                (fun e -> List.mem e (groups_of t j))
                (groups_of t txn)
            in
            if
              j <> txn && (not same_group)
              && Hashtbl.find_opt t.status j = Some Committed
            then
              match Hashtbl.find_opt t.end_pos j with
              | Some cp when cp > my_begin ->
                violate t "si-lost-update"
                  (Printf.sprintf
                     "T%d (snapshot from %d) committed a write to %s \
                      although T%d committed its own write to it at %d"
                     txn my_begin (obj_str obj) j cp)
              | _ -> ())
          w_spans
      in
      match Hashtbl.find_opt t.writes_of txn with
      | Some writes ->
        List.iter
          (fun (obj, _) ->
            let g = group_for t (key_of_obj obj) in
            match obj with
            | History.Row (_, row) ->
              (* same-row writers, plus table-level writers (a whole-
                 table write overlaps every row) *)
              (match Hashtbl.find_opt g.rows row with
              | Some s -> audit obj s.w
              | None -> ());
              audit obj g.whole.w
            | History.Table _ ->
              (* a table-level write overlaps both the other table-
                 level writes and every row write *)
              audit obj g.whole.w;
              audit obj g.agg.w
            | History.Named _ ->
              (* the synthetic notation's single-cell objects *)
              audit obj g.whole.w)
          !writes
      | None -> ()
    end;
    (* activate conflict edges whose other endpoint already committed *)
    match Hashtbl.find_opt t.incident txn with
    | Some l ->
      List.iter
        (fun (a, b) ->
          match Hashtbl.find_opt t.potential (a, b) with
          | Some e when e.state = Pending ->
            let other = if a = txn then b else a in
            if Hashtbl.find_opt t.status other = Some Committed then
              activate t (a, b) e
          | _ -> ())
        !l;
      Hashtbl.remove t.incident txn
    | None -> ()
  end
  else begin
    (* edges through an aborted transaction never activate *)
    (match Hashtbl.find_opt t.incident txn with
    | Some l ->
      List.iter
        (fun ab ->
          match Hashtbl.find_opt t.potential ab with
          | Some e -> e.state <- Dead
          | None -> ())
        !l;
      Hashtbl.remove t.incident txn
    | None -> ());
    (* C.3: committed transactions that already read this one's writes *)
    match Hashtbl.find_opt t.writes_of txn with
    | Some writes ->
      List.iter
        (fun (obj, wpos) ->
          let g = group_for t (key_of_obj obj) in
          let readers spans f =
            Hashtbl.iter
              (fun j (s : span) -> if j <> txn && s.last > wpos then f j)
              spans
          in
          let consider j =
            let why =
              Printf.sprintf "read %s after aborted T%d wrote it at %d"
                (obj_str obj) txn wpos
            in
            match Hashtbl.find_opt t.status j with
            | Some Committed ->
              violate t
                (if is_si t j then "si-read-uncommitted"
                 else "read-from-aborted")
                (Printf.sprintf "T%d committed after it %s" j why)
            | Some Aborted -> ()
            | None ->
              if not (Hashtbl.mem t.tainted j) then
                Hashtbl.replace t.tainted j why
          in
          match obj with
          | History.Row (_, row) ->
            (match Hashtbl.find_opt g.rows row with
            | Some s -> readers s.r consider
            | None -> ());
            readers g.whole.r consider
          | History.Table _ | History.Named _ ->
            readers g.whole.r consider;
            readers g.agg.r consider)
        !writes
    | None -> ()
  end;
  (* C.4: widowed entanglement groups *)
  List.iter
    (fun event ->
      match Hashtbl.find_opt t.ginfos event with
      | Some gi ->
        if committed then begin
          if gi.committed_member = None then gi.committed_member <- Some txn
        end
        else if gi.aborted_member = None then gi.aborted_member <- Some txn;
        check_widow t event gi
      | None -> ())
    (groups_of t txn)

(* --- entanglement --- *)

let entangle t event participants =
  (* group bookkeeping, seeded from any already-terminated members
     (only possible in hand-written or mutated histories) *)
  let gi =
    {
      committed_member =
        List.find_opt (fun i -> Hashtbl.find_opt t.status i = Some Committed)
          participants;
      aborted_member =
        List.find_opt (fun i -> Hashtbl.find_opt t.status i = Some Aborted)
          participants;
      g_reported = false;
    }
  in
  Hashtbl.replace t.ginfos event gi;
  List.iter (fun i -> push t.groups_of_txn i event) participants;
  check_widow t event gi;
  (* expand buffered grounding reads into quasi-reads of the other
     participants, at the grounding read's original position *)
  List.iter
    (fun j ->
      match Hashtbl.find_opt t.ground_buffer j with
      | Some buffered ->
        List.iter
          (fun (p, x) ->
            List.iter (fun i -> if i <> j then quasi_read t i x p) participants)
          !buffered;
        buffered := []
      | None -> ())
    participants

(* --- public entry points --- *)

let next_pos t =
  t.pos <- t.pos + 1;
  t.pos

(* The schedule position an operation of [txn] is judged at. Snapshot
   transactions read from their begin-stamp snapshot, so every read is
   repositioned to the snapshot anchor — the Ev_begin position when
   the stream carries begins, else the transaction's first operation.
   Writes stay at their live position (they hit the live table). *)
let read_pos t txn p =
  if is_si t txn then begin
    match Hashtbl.find_opt t.begin_pos txn with
    | Some b -> b
    | None ->
      Hashtbl.replace t.begin_pos txn p;
      p
  end
  else p

let anchor t txn p =
  if is_si t txn && not (Hashtbl.mem t.begin_pos txn) then
    Hashtbl.replace t.begin_pos txn p

let on_op t (op : History.op) =
  match op with
  | Read (i, x) ->
    let p = next_pos t in
    data_op t R i x (read_pos t i p)
  | Ground_read (i, x) ->
    let p = read_pos t i (next_pos t) in
    let l = buffer_of t i in
    l := !l @ [ (p, x) ];
    data_op t G i x p
  | Quasi_read (i, x) ->
    (* pre-expanded input (e.g. a checked file): track it like one the
       certifier expanded itself *)
    quasi_read t i x (next_pos t)
  | Write (i, x) ->
    let p = next_pos t in
    anchor t i p;
    data_op t W i x p
  | Entangle (k, participants) ->
    ignore (next_pos t);
    entangle t k participants
  | Commit i ->
    ignore (next_pos t);
    terminal t i ~committed:true
  | Abort i ->
    ignore (next_pos t);
    terminal t i ~committed:false

let on_engine_event t (ev : Ent_txn.Engine.event) =
  match ev with
  | Ev_begin (txn, level) ->
    (* not a schedule position of its own; it declares the level and,
       for snapshot transactions, pins the snapshot anchor *)
    set_level t txn level;
    if level = Ent_txn.Engine.Snapshot then
      Hashtbl.replace t.begin_pos txn t.pos
  | ev -> Option.iter (on_op t) (History.of_engine_event ev)

let on_entangle t ~event participants =
  on_op t (History.Entangle (event, List.map fst participants))

let stats t =
  let committed = ref 0 and aborted = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      match s with
      | Committed -> incr committed
      | Aborted -> incr aborted)
    t.status;
  {
    ops = t.op_count;
    txns = Hashtbl.length t.seen_txns;
    committed = !committed;
    aborted = !aborted;
    edges = t.active_edges;
    quasi_reads = t.quasi_count;
  }

let replay ?(levels = []) history =
  let t = create () in
  List.iter (fun (txn, level) -> set_level t txn level) levels;
  List.iter (on_op t) history;
  t

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.code v.detail

let pp_report ppf t =
  let s = stats t in
  (match violations t with
  | [] -> Format.fprintf ppf "certify: ok"
  | vs ->
    Format.fprintf ppf "certify: %d violation%s" (List.length vs)
      (if List.length vs = 1 then "" else "s"));
  Format.fprintf ppf
    " (%d ops, %d committed, %d aborted, %d conflict edges, %d quasi-reads)"
    s.ops s.committed s.aborted s.edges s.quasi_reads;
  List.iter
    (fun v -> Format.fprintf ppf "@\n  %a" pp_violation v)
    (violations t);
  List.iter
    (fun a -> Format.fprintf ppf "@\n  (anomaly, allowed by SI) %a" pp_violation a)
    (anomalies t)

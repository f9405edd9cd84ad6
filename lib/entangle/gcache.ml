open Ent_storage
module Obs = Ent_obs.Obs

let m_hits = Obs.counter "entangle.gcache.hits"
let m_misses = Obs.counter "entangle.gcache.misses"
let m_invalidations = Obs.counter "entangle.gcache.invalidations"
let m_footprint = Obs.histogram "entangle.gcache.footprint"

(* Ground's own histogram (metrics are interned by name): a reused
   grounding list is still one list served. *)
let m_ground_size = Obs.histogram "entangle.ground.size"

(* One recorded read of a grounding computation. [Scan] covers the
   whole table; [Point]/[Range] are keyed sub-reads whose results can
   only change when a write touches a matching row. *)
type read =
  | Scan
  | Point of int list * Value.t list
  | Range of int * Ordered_index.bound * Ordered_index.bound

type table_entry = {
  te_name : string;
  te_table : Table.t;  (* physical identity at record time *)
  mutable te_version : int;
  te_reads : read list;
}

type entry = {
  e_valuations : Ground.valuation list;
  e_tables : table_entry list;  (* first-read order *)
  mutable e_live : bool;
      (* filed under its key; cleared, under [mu], when it leaves the
         table (invalidation, reset, replacement) *)
}

(* Two grounding computations coincide iff body, the host bindings the
   body mentions, and the exploration limit coincide — the per-query
   head/post substitution happens after the cache. Keys are compared
   structurally ([Value.t] has no floats, so polymorphic equality is
   exact). [Hashtbl.hash] gives up long before the literals that tell
   two bodies apart, so [k_hash] mixes in every literal and host
   binding of the body. *)
(* [k_body] is only ever read by the polymorphic equality of the
   entries table, hence the unused-field waiver. *)
type key = {
  k_body : Ent_sql.Ast.cond;
  k_env : (string * Value.t option) list;  (* sorted by host-var name *)
  k_limit : int;
  k_hash : int;
} [@@warning "-69"]

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = ( = )
  let hash k = k.k_hash
end)

(* What one caller kept from its last grounding through the cache: the
   query (compared physically), its key, the entry that served it and
   the grounding list substituted from that entry for this query. *)
type memo = {
  m_query : Ir.t;
  m_key : key;
  m_entry : entry;
  m_served : Ground.grounding list;
}

type t = {
  catalog : Catalog.t;
  entries : entry Key_tbl.t;
  max_entries : int;  (* a miss that finds this many entries resets *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  (* Guards [entries], [e_live] and the counters: groundings for
     independent pending tasks run concurrently on worker domains.
     Validation and insertion happen under [mu]; the expensive part
     (valuation enumeration, substitution, lock acquisition via
     [touch]) runs outside it. *)
  mu : Mutex.t;
}

let create ?(max_entries = 4096) catalog =
  {
    catalog;
    entries = Key_tbl.create 64;
    max_entries;
    hits = 0;
    misses = 0;
    invalidations = 0;
    mu = Mutex.create ();
  }

let with_mu mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

let stats t = (t.hits, t.misses, t.invalidations)

(* --- literals and host variables of a body --- *)

(* Fold [f] over every literal and host-variable leaf of a body, in a
   fixed order. *)
let rec expr_leaves f acc (e : Ent_sql.Ast.expr) =
  match e with
  | Lit _ | Host _ -> f acc e
  | Col _ | Count_star -> acc
  | Binop (_, a, b) -> expr_leaves f (expr_leaves f acc a) b
  | Agg (_, a) -> expr_leaves f acc a

let rec cond_leaves f acc (c : Ent_sql.Ast.cond) =
  match c with
  | True -> acc
  | Cmp (_, a, b) -> exprs_leaves f acc [ a; b ]
  | And (a, b) | Or (a, b) -> cond_leaves f (cond_leaves f acc a) b
  | Not a -> cond_leaves f acc a
  | In_select (es, sub) -> select_leaves f (exprs_leaves f acc es) sub
  | In_list (e, values) -> exprs_leaves f acc (e :: values)
  | Between (e, lo, hi) -> exprs_leaves f acc [ e; lo; hi ]
  | In_answer (es, _) -> exprs_leaves f acc es

and exprs_leaves f acc es = List.fold_left (expr_leaves f) acc es

and select_leaves f acc (sel : Ent_sql.Ast.select) =
  let projs = List.map (fun (p : Ent_sql.Ast.proj) -> p.pexpr) sel.projs in
  let acc = cond_leaves f (exprs_leaves f acc projs) sel.where in
  exprs_leaves f (exprs_leaves f acc sel.group_by) (List.map fst sel.order_by)

let mix h x = (h * 31) + x

let key_of ~env ~limit body =
  let hosts, h =
    cond_leaves
      (fun (hosts, h) (e : Ent_sql.Ast.expr) ->
        let hosts = match e with Host name -> name :: hosts | _ -> hosts in
        (hosts, mix h (Hashtbl.hash e)))
      ([], mix (Hashtbl.hash body) limit)
      body
  in
  let k_env =
    List.map
      (fun name -> (name, Hashtbl.find_opt env name))
      (List.sort_uniq String.compare hosts)
  in
  {
    k_body = body;
    k_env;
    k_limit = limit;
    k_hash = List.fold_left (fun h b -> mix h (Hashtbl.hash b)) h k_env;
  }

let key_hash ~env ~limit body = (key_of ~env ~limit body).k_hash

(* [key_of ~env] would rebuild [key]: the host bindings the body reads
   are unchanged in [env]. *)
let env_unchanged key env =
  List.for_all
    (fun (name, v) -> Option.equal Value.equal (Hashtbl.find_opt env name) v)
    key.k_env

(* --- footprint recording --- *)

(* Wrap an access so every read path notes (table, read shape) before
   streaming. Reads are noted at sequence creation: an eager
   over-approximation, which is always sound. *)
let recording (access : Ent_sql.Eval.access) =
  let order = ref [] in
  let by_name : (string, read list ref) Hashtbl.t = Hashtbl.create 4 in
  let note name read =
    let reads =
      match Hashtbl.find_opt by_name name with
      | Some reads -> reads
      | None ->
        let reads = ref [] in
        Hashtbl.add by_name name reads;
        order := name :: !order;
        reads
    in
    if not (List.mem read !reads) then reads := read :: !reads
  in
  let raccess =
    {
      access with
      scan =
        (fun name ->
          note name Scan;
          access.scan name);
      lookup =
        (fun name ~positions key ->
          note name (Point (positions, key));
          access.lookup name ~positions key);
      range =
        (fun name ~position ~lo ~hi ->
          note name (Range (position, lo, hi));
          access.range name ~position ~lo ~hi);
    }
  in
  let finish catalog =
    List.rev_map
      (fun name ->
        match Catalog.find catalog name with
        | Some table ->
          {
            te_name = name;
            te_table = table;
            te_version = Table.version table;
            te_reads = !(Hashtbl.find by_name name);
          }
        | None ->
          (* the access resolved a name the catalog no longer has; only
             reachable through hostile interleaving — never cache it *)
          raise Exit)
      !order
  in
  (raccess, finish)

(* --- invalidation --- *)

let in_bounds ~lo ~hi v =
  (match lo with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b >= 0
  | Ordered_index.Exclusive b -> Value.compare v b > 0)
  &&
  match hi with
  | Ordered_index.Unbounded -> true
  | Ordered_index.Inclusive b -> Value.compare v b <= 0
  | Ordered_index.Exclusive b -> Value.compare v b < 0

let read_touches_row read row =
  match read with
  | Scan -> true
  | Point (positions, key) ->
    List.equal Value.equal (List.map (fun i -> Tuple.get row i) positions) key
  | Range (position, lo, hi) -> in_bounds ~lo ~hi (Tuple.get row position)

let change_intersects reads (c : Table.change) =
  let side = function
    | None -> false
    | Some row -> List.exists (fun read -> read_touches_row read row) reads
  in
  side c.c_before || side c.c_after

let table_entry_valid t te =
  match Catalog.find t.catalog te.te_name with
  | Some table when table == te.te_table -> (
    Table.version table = te.te_version
    ||
    match Table.changes_since table te.te_version with
    | None -> false  (* changelog truncated or structural change *)
    | Some changes ->
      not (List.exists (change_intersects te.te_reads) changes))
  | _ -> false  (* dropped or re-created table *)

let entry_valid t entry = List.for_all (table_entry_valid t) entry.e_tables

(* After a successful validation, fast-forward the recorded versions so
   the next round does not re-scan the same (non-intersecting)
   changelog suffix. *)
let refresh entry =
  List.iter (fun te -> te.te_version <- Table.version te.te_table) entry.e_tables

(* --- the cache --- *)

(* Take [entry] out of the table's view; the caller holds [mu]. *)
let retire entry = entry.e_live <- false

(* Soundness under parallelism: groundings only read (table-S locks),
   and the scheduler grounds pending tasks in a phase of its own where
   no transaction is stepping, so a validated entry cannot be
   invalidated by a concurrent writer between validation and [touch].

   A memo whose query is this very query and whose key's host bindings
   still hold in [env] names the key [key_of] would rebuild, so it
   skips the rebuild. While its entry is live, that entry is the one
   filed under the key, so it also skips the table lookup. Either way
   the entry found is validated, refreshed and counted exactly as a
   lookup by key would: the memo changes no verdict. *)
let compute t ?(limit = 10_000) ?(bypass = false) ?memo ~access ~touch ~env
    (query : Ir.t) =
  if bypass then
    (* Snapshot-isolation grounding: the footprint validation above is
       keyed to LIVE table versions, but the caller reads an older
       snapshot — neither serving nor populating the cache is sound.
       Run the enumeration fresh; [touch] is unused (snapshot reads
       take no locks). *)
    let vals = Ground.valuations ~limit ~access ~env query.body in
    (Ground.groundings_of query vals, false, memo)
  else
  let memo, key =
    match memo with
    | Some m
      when m.m_query == query && m.m_key.k_limit = limit
           && env_unchanged m.m_key env ->
      (memo, m.m_key)
    | _ -> (None, key_of ~env ~limit query.body)
  in
  let kept entry served =
    Some { m_query = query; m_key = key; m_entry = entry; m_served = served }
  in
  let cached =
    with_mu t.mu (fun () ->
        let found =
          match memo with
          | Some m when m.m_entry.e_live -> Some m.m_entry
          | _ -> Key_tbl.find_opt t.entries key
        in
        match found with
        | Some entry when entry_valid t entry ->
          refresh entry;
          t.hits <- t.hits + 1;
          Obs.incr m_hits;
          Some entry
        | found ->
          (match found with
          | Some entry ->
            Key_tbl.remove t.entries key;
            retire entry;
            t.invalidations <- t.invalidations + 1;
            Obs.incr m_invalidations
          | None -> ());
          t.misses <- t.misses + 1;
          Obs.incr m_misses;
          None)
  in
  match cached with
  | Some entry -> (
    (* reproduce the grounding-lock side effects before serving; may
       raise Blocked/Deadlock_victim exactly like a recomputation *)
    touch (List.map (fun te -> te.te_name) entry.e_tables);
    match memo with
    | Some m when m.m_entry == entry ->
      Obs.observe m_ground_size (float_of_int (List.length m.m_served));
      (m.m_served, true, Some m)
    | _ ->
      let served = Ground.groundings_of query entry.e_valuations in
      (served, true, kept entry served))
  | None ->
    let raccess, finish = recording access in
    let vals = Ground.valuations ~limit ~access:raccess ~env query.body in
    let served = Ground.groundings_of query vals in
    match finish t.catalog with
    | tables ->
      let entry = { e_valuations = vals; e_tables = tables; e_live = true } in
      with_mu t.mu (fun () ->
          if Key_tbl.length t.entries >= t.max_entries then begin
            Key_tbl.iter (fun _ old -> retire old) t.entries;
            Key_tbl.reset t.entries
          end;
          (* a concurrent miss on the same key may have got here first *)
          Option.iter retire (Key_tbl.find_opt t.entries key);
          Key_tbl.replace t.entries key entry;
          Obs.observe m_footprint
            (float_of_int
               (List.fold_left
                  (fun acc te -> acc + List.length te.te_reads)
                  0 tables)));
      (served, false, kept entry served)
    | exception Exit -> (served, false, None)

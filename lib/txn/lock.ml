module Obs = Ent_obs.Obs

(* layer.component.metric, DESIGN.md §3 *)
let m_requests = Obs.counter "txn.lock.requests"
let m_granted = Obs.counter "txn.lock.granted"
let m_waits = Obs.counter "txn.lock.waits"
let m_releases = Obs.counter "txn.lock.releases"
let m_wakeups = Obs.counter "txn.lock.wakeups"
let m_entries = Obs.gauge "txn.lock.entries"

type mode = IS | IX | S | X

type resource =
  | Table of string
  | Row of string * int

let compatible a b =
  match a, b with
  | IS, IS | IS, IX | IX, IS | IX, IX | IS, S | S, IS | S, S -> true
  | X, _ | _, X | S, IX | IX, S -> false

(* Does holding [held] cover a request for [want]? *)
let covers held want =
  match held, want with
  | X, _ -> true
  | S, (S | IS) -> true
  | IX, (IX | IS) -> true
  | IS, IS -> true
  | _ -> false

(* Least mode at least as strong as both (escalating S+IX to X since we
   do not implement SIX). *)
let lub a b =
  if covers a b then a
  else if covers b a then b
  else
    match a, b with
    | IS, IX | IX, IS -> IX
    | S, IX | IX, S | S, X | X, S | IX, X | X, IX | IS, X | X, IS -> X
    | IS, S | S, IS -> S
    | IS, IS | IX, IX | S, S | X, X -> a

(* Tables keyed by an int that is its own hash: txn ids, which are
   small and dense, and lock keys, which are mixed when built (below). *)
module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

module Txns = Ints

(* An entry's holders. Most row entries have one holder, kept inline
   as [Sole]. Two or more live in [Shared]: a map from txn to mode,
   plus one holder count per mode, so the grant check can tell whether
   a clashing mode is held without a scan. A [Shared] entry stays
   [Shared] until its last holder leaves. *)
type holders =
  | Free
  | Sole of int * mode
  | Shared of shared

and shared = {
  modes : mode Txns.t;
  mutable n_is : int;
  mutable n_ix : int;
  mutable n_s : int;
  mutable n_x : int;
}

type entry = {
  resource : resource;  (* the view the key was built from *)
  mutable holders : holders;
  mutable queue : (int * mode) list;  (* FIFO: head is the oldest waiter *)
}

let bump s mode d =
  match mode with
  | IS -> s.n_is <- s.n_is + d
  | IX -> s.n_ix <- s.n_ix + d
  | S -> s.n_s <- s.n_s + d
  | X -> s.n_x <- s.n_x + d

(* Holders whose mode is incompatible with [need] (the requester's own
   hold included): the counts read through [compatible]'s table. *)
let clashing s need =
  match need with
  | IS -> s.n_x
  | IX -> s.n_s + s.n_x
  | S -> s.n_ix + s.n_x
  | X -> s.n_is + s.n_ix + s.n_s + s.n_x

let mode_of entry txn =
  match entry.holders with
  | Free -> None
  | Sole (o, m) -> if o = txn then Some m else None
  | Shared s -> Txns.find_opt s.modes txn

let put s txn mode =
  Option.iter (fun old -> bump s old (-1)) (Txns.find_opt s.modes txn);
  Txns.replace s.modes txn mode;
  bump s mode 1

(* Grant [mode] to [txn], replacing what it held. *)
let add_holder entry txn mode =
  match entry.holders with
  | Free -> entry.holders <- Sole (txn, mode)
  | Sole (o, _) when o = txn -> entry.holders <- Sole (txn, mode)
  | Sole (o, m) ->
    let s = { modes = Txns.create 8; n_is = 0; n_ix = 0; n_s = 0; n_x = 0 } in
    put s o m;
    put s txn mode;
    entry.holders <- Shared s
  | Shared s -> put s txn mode

let remove_holder entry txn =
  match entry.holders with
  | Free -> ()
  | Sole (o, _) -> if o = txn then entry.holders <- Free
  | Shared s -> (
    match Txns.find_opt s.modes txn with
    | None -> ()
    | Some m ->
      bump s m (-1);
      Txns.remove s.modes txn;
      if Txns.length s.modes = 0 then entry.holders <- Free)

let fold_holders f entry acc =
  match entry.holders with
  | Free -> acc
  | Sole (o, m) -> f o m acc
  | Shared s -> Txns.fold f s.modes acc

(* Sorted by txn id. *)
let holder_list entry =
  fold_holders (fun o m acc -> (o, m) :: acc) entry []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Keys. Every entry is keyed by one immediate int built from its
   resource view, so that past the entry to each call no string is
   hashed or compared. Table names are interned into dense ids per
   manager, [name_bits] of them; a key packs a tag bit (bit 0: 1 for a
   row, so [Row (t, 0)] and [Table t] differ), the name id above it
   and, for rows, the row id above that. The packing is injective on
   every view in range, and a view out of range raises
   [Invalid_argument] instead of sharing a key. The packed int is then
   mixed by a bijection (an odd multiply and an xor-shift, both
   invertible mod 2^63), so the key is still injective and is its own
   hash: the shard map reads its top bits and the shard's [Ints] table
   its low ones. Names are interned by name, not by catalog id, so a
   dropped and re-created table is the same lock resource. *)

let name_bits = 16
let max_names = 1 lsl name_bits
let row_shift = name_bits + 1
let max_row = max_int lsr row_shift

module Names = Map.Make (String)

(* The intern table: immutable, swapped whole by compare-and-set, so
   pool domains read it without a lock while another adds a name. *)
type names = { ids : int Names.t; count : int }

let mix k =
  let h = k * 0x7fb5d329728ea185 in
  h lxor (h lsr 32)

(* The entry map is sharded by key so that transactions touching
   disjoint keys never contend on a lock-manager mutex — the DB-level
   locks were already disjoint, this makes the manager's own
   synchronization disjoint too. [owned] and [waiting] are striped by
   txn id (a txn's requests come from one domain at a time, so stripes
   only order request-vs-release). [waiting] is the waits-for index: the
   keys whose queue holds the txn. It is written only under the shard
   mutex of the key whose queue changed, so a reader holding every
   shard sees it equal to the queues. [owned] gains a key under its
   shard mutex too, and [deadlock_cycle] reads its in-edges from it;
   [release_all] drops the whole list before it takes any shard, so a
   search that meets a txn mid-release sees nothing waiting on it. Such
   a txn is finishing, so no cycle through it can persist. [groups] is
   a single small map behind its own mutex. Mutex order, where nested:
   shard -> (stripe | groups). Stripe and group mutexes are leaves. In
   the deterministic single-domain mode every mutex is uncontended, and
   all observable outputs below are sorted, so sharding is invisible to
   existing fixtures. *)

let shard_bits = 4
let n_shards = 1 lsl shard_bits
let n_stripes = 16

(* per-shard wait depth *)
let m_shard_waiters =
  Array.init n_shards (fun i ->
      Obs.gauge (Printf.sprintf "txn.lock.shard_waiters.%02d" i))

type shard = {
  sh_mu : Mutex.t;
  sh_entries : entry Ints.t;
  mutable sh_waiters : int;  (* queued (txn, key) pairs in this shard *)
}

type stripe = {
  st_mu : Mutex.t;
  st_owned : int list Txns.t;  (* keys held or waited on, each once *)
  st_waiting : int list Txns.t;  (* keys queued on *)
}

type t = {
  names : names Atomic.t;
  shards : shard array;
  stripes : stripe array;
  groups_mu : Mutex.t;
  groups : int Txns.t;  (* txn -> entanglement group tag *)
  total_entries : int Atomic.t;
  mutable probe : (txn:int -> resource -> mode -> unit) option;
}

let create () =
  {
    names = Atomic.make { ids = Names.empty; count = 0 };
    shards =
      Array.init n_shards (fun _ ->
          {
            sh_mu = Mutex.create ();
            sh_entries = Ints.create 16;
            sh_waiters = 0;
          });
    stripes =
      Array.init n_stripes (fun _ ->
          {
            st_mu = Mutex.create ();
            st_owned = Txns.create 8;
            st_waiting = Txns.create 8;
          });
    groups_mu = Mutex.create ();
    groups = Txns.create 16;
    total_entries = Atomic.make 0;
    probe = None;
  }

let rec name_id t name =
  let names = Atomic.get t.names in
  match Names.find_opt name names.ids with
  | Some id -> id
  | None ->
    if names.count >= max_names then
      invalid_arg
        (Printf.sprintf "Lock: more than %d table names" max_names);
    let grown =
      { ids = Names.add name names.count names.ids; count = names.count + 1 }
    in
    if Atomic.compare_and_set t.names names grown then names.count
    else name_id t name

let key t = function
  | Table name -> mix (name_id t name lsl 1)
  | Row (name, row) ->
    if row < 0 || row > max_row then
      invalid_arg (Printf.sprintf "Lock: row id %d out of range" row);
    mix ((row lsl row_shift) lor (name_id t name lsl 1) lor 1)

let shard_count = n_shards
let shard_index key = key lsr (Sys.int_size - shard_bits)
let shard_of t resource = shard_index (key t resource)
let shard t key = t.shards.(shard_index key)

let note_waiters i sh = Obs.set m_shard_waiters.(i) (float_of_int sh.sh_waiters)

let with_mu mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

let stripe_for t txn = t.stripes.(abs (txn mod n_stripes))

let lock_all_shards t =
  Array.iter (fun sh -> Mutex.lock sh.sh_mu) t.shards

let unlock_all_shards t =
  Array.iter (fun sh -> Mutex.unlock sh.sh_mu) t.shards

let with_all_shards t f =
  lock_all_shards t;
  match f () with
  | v -> unlock_all_shards t; v
  | exception e -> unlock_all_shards t; raise e

let set_group t ~txn ~group =
  with_mu t.groups_mu (fun () -> Txns.replace t.groups txn group)

let same_owner t a b =
  a = b
  || with_mu t.groups_mu (fun () ->
         match Txns.find_opt t.groups a, Txns.find_opt t.groups b with
         | Some ga, Some gb -> ga = gb
         | _ -> false)

(* Callers hold [sh.sh_mu]. *)
let entry_for t sh key resource =
  match Ints.find_opt sh.sh_entries key with
  | Some e -> e
  | None ->
    let e = { resource; holders = Free; queue = [] } in
    Ints.add sh.sh_entries key e;
    Atomic.incr t.total_entries;
    e

(* Rewrite [txn]'s key list in one map of its stripe; an empty list
   drops the txn. *)
let update_stripe t txn map f =
  let st = stripe_for t txn in
  with_mu st.st_mu (fun () ->
      let map = map st in
      match f (Option.value ~default:[] (Txns.find_opt map txn)) with
      | [] -> Txns.remove map txn
      | ks -> Txns.replace map txn ks)

(* Callers add [key] only when [txn] neither holds it nor is queued on
   it, so each key appears once. *)
let note_owned t txn key =
  update_stripe t txn (fun st -> st.st_owned) (fun ks -> key :: ks)

(* Waits-for index upkeep. Callers hold the shard mutex of [key]. *)
let note_waiting t txn key =
  update_stripe t txn (fun st -> st.st_waiting) (fun ks -> key :: ks)

let clear_waiting t txn key =
  update_stripe t txn
    (fun st -> st.st_waiting)
    (List.filter (fun k -> not (Int.equal k key)))

let stripe_list t txn map =
  let st = stripe_for t txn in
  with_mu st.st_mu (fun () ->
      Option.value ~default:[] (Txns.find_opt (map st) txn))

let waiting_on t txn = stripe_list t txn (fun st -> st.st_waiting)
let owned_by t txn = stripe_list t txn (fun st -> st.st_owned)

type outcome =
  | Granted
  | Waiting

let set_probe t f = t.probe <- f

(* Holder [o] in mode [m] blocks [txn] asking for [need] when the modes
   clash and [o] is not [txn] or its group. Compatibility is tested
   first, so [same_owner] and its mutex are reached only for clashing
   holders. *)
let conflicts t txn need o m =
  (not (compatible need m)) && not (same_owner t o txn)

let in_group t txn = with_mu t.groups_mu (fun () -> Txns.mem t.groups txn)

(* O(1) unless a clashing mode is held by another txn. If none is, the
   request is grantable. If one is and [txn] has no group, no holder can
   share its owner, so it is not. Only a grouped [txn] facing a clash
   scans the holders, under the [conflicts] rule. *)
let grantable t entry txn need =
  match entry.holders with
  | Free -> true
  | Sole (o, m) -> not (conflicts t txn need o m)
  | Shared s ->
    let own =
      match Txns.find_opt s.modes txn with
      | Some m when not (compatible need m) -> 1
      | _ -> 0
    in
    clashing s need = own
    || in_group t txn
       && not
            (Seq.exists
               (fun (o, m) -> conflicts t txn need o m)
               (Txns.to_seq s.modes))

let request t ~txn resource mode =
  Obs.incr m_requests;
  Obs.set m_entries (float_of_int (Atomic.get t.total_entries));
  (match t.probe with
  | Some f -> f ~txn resource mode
  | None -> ());
  let key = key t resource in
  let i = shard_index key in
  let sh = t.shards.(i) in
  with_mu sh.sh_mu (fun () ->
      let entry = entry_for t sh key resource in
      let held = mode_of entry txn in
      let need =
        match held with
        | Some h -> lub h mode
        | None -> mode
      in
      match held with
      | Some h when covers h mode ->
        Obs.incr m_granted;
        Granted
      | _ ->
        if List.exists (fun (o, _) -> o = txn) entry.queue then begin
          (* already queued; strengthen the queued mode if needed *)
          entry.queue <-
            List.map
              (fun (o, m) -> if o = txn then (o, lub m need) else (o, m))
              entry.queue;
          Obs.incr m_waits;
          Waiting
        end
        else begin
          let is_upgrade = held <> None in
          (* Upgrades may jump the queue (a blocked upgrade behind a new
             waiter on the same resource would deadlock trivially). Fresh
             requests respect FIFO order. *)
          if grantable t entry txn need && (entry.queue = [] || is_upgrade)
          then begin
            add_holder entry txn need;
            if not is_upgrade then note_owned t txn key;
            Obs.incr m_granted;
            Granted
          end
          else begin
            entry.queue <- entry.queue @ [ (txn, need) ];
            sh.sh_waiters <- sh.sh_waiters + 1;
            note_waiters i sh;
            if not is_upgrade then note_owned t txn key;
            note_waiting t txn key;
            Obs.incr m_waits;
            Waiting
          end
        end)

(* Callers hold the entry's shard mutex. *)
let promote_waiters t sh key entry =
  (* Grant from the front of the queue while compatible. *)
  let granted = ref [] in
  let rec go () =
    match entry.queue with
    | [] -> ()
    | (txn, need) :: rest ->
      if grantable t entry txn need then begin
        add_holder entry txn need;
        entry.queue <- rest;
        sh.sh_waiters <- sh.sh_waiters - 1;
        clear_waiting t txn key;
        granted := txn :: !granted;
        go ()
      end
  in
  go ();
  List.rev !granted

let release_all t ~txn =
  Obs.incr m_releases;
  let st = stripe_for t txn in
  let keys =
    with_mu st.st_mu (fun () ->
        let ks = Option.value ~default:[] (Txns.find_opt st.st_owned txn) in
        Txns.remove st.st_owned txn;
        ks)
  in
  with_mu t.groups_mu (fun () -> Txns.remove t.groups txn);
  let woken = ref [] in
  List.iter
    (fun key ->
      let i = shard_index key in
      let sh = t.shards.(i) in
      with_mu sh.sh_mu (fun () ->
          match Ints.find_opt sh.sh_entries key with
          | None -> ()
          | Some entry -> (
            remove_holder entry txn;
            (* With no queue nothing can be promoted and the shard's
               waiter count, hence its gauge, cannot change. *)
            if entry.queue <> [] then begin
              let before = List.length entry.queue in
              entry.queue <- List.filter (fun (o, _) -> o <> txn) entry.queue;
              let dropped = before - List.length entry.queue in
              if dropped > 0 then clear_waiting t txn key;
              sh.sh_waiters <- sh.sh_waiters - dropped;
              woken := promote_waiters t sh key entry @ !woken;
              note_waiters i sh
            end;
            match entry.holders, entry.queue with
            | Free, [] ->
              Ints.remove sh.sh_entries key;
              Atomic.decr t.total_entries
            | _ -> ())))
    keys;
  Obs.set m_entries (float_of_int (Atomic.get t.total_entries));
  let woken = List.sort_uniq Int.compare !woken in
  Obs.incr ~n:(List.length woken) m_wakeups;
  woken

(* The live entry of [key]. Callers hold its shard mutex. *)
let find_entry t key = Ints.find_opt (shard t key).sh_entries key

let holders t resource =
  let key = key t resource in
  with_mu (shard t key).sh_mu (fun () ->
      match find_entry t key with
      | None -> []
      | Some e -> holder_list e)

let held t ~txn resource =
  let key = key t resource in
  with_mu (shard t key).sh_mu (fun () ->
      Option.bind (find_entry t key) (fun e -> mode_of e txn))

(* A waiter waits for every incompatible holder and every earlier
   incompatible waiter on the same resource. *)
let blockers_of_entry t entry txn =
  match
    List.find_opt (fun (o, _) -> o = txn) entry.queue
  with
  | None -> []
  | Some (_, need) ->
    let rec earlier acc = function
      | [] -> acc
      | (o, _) :: _ when o = txn -> acc
      | (o, m) :: rest ->
        earlier (if compatible need m then acc else o :: acc) rest
    in
    let from_holders =
      fold_holders
        (fun o m acc -> if conflicts t txn need o m then o :: acc else acc)
        entry []
    in
    from_holders @ earlier [] entry.queue

(* Requires all shard mutexes (or single-domain quiescence). *)
let blockers_unlocked t ~txn =
  List.concat_map
    (fun key ->
      match find_entry t key with
      | Some entry -> blockers_of_entry t entry txn
      | None -> [])
    (waiting_on t txn)
  |> List.sort_uniq Int.compare

let blockers t ~txn = with_all_shards t (fun () -> blockers_unlocked t ~txn)

(* The mirror of [blockers_of_entry]: the waiters on [entry] that wait
   for [x]. Those are the waiters whose request clashes with the mode
   [x] holds (outside [x]'s group), and those queued after [x] whose
   request clashes with [x]'s queued one. *)
let waiters_of_entry t entry x =
  match entry.queue with
  | [] -> []
  | queue ->
    let on_held =
      match mode_of entry x with
      | None -> []
      | Some held ->
        List.filter_map
          (fun (w, need) -> if conflicts t w need x held then Some w else None)
          queue
    in
    let rec behind = function
      | [] -> []
      | (o, queued) :: rest when o = x ->
        List.filter_map
          (fun (w, need) -> if compatible need queued then None else Some w)
          rest
      | _ :: rest -> behind rest
    in
    on_held @ behind queue

(* Every txn that waits for [txn], read over the entries [txn] holds or
   is queued on. Requires all shard mutexes. *)
let waiters_unlocked t ~txn =
  List.concat_map
    (fun key ->
      match find_entry t key with
      | Some entry -> waiters_of_entry t entry txn
      | None -> [])
    (owned_by t txn)

let is_waiting t ~txn = waiting_on t txn <> []

let waits t ~txn =
  List.filter_map
    (fun key ->
      with_mu (shard t key).sh_mu (fun () ->
          match find_entry t key with
          | None -> None
          | Some entry ->
            Option.map
              (fun need -> (entry.resource, need))
              (List.assoc_opt txn entry.queue)))
    (waiting_on t txn)
  |> List.sort compare

let dump t =
  with_all_shards t (fun () ->
      Array.fold_left
        (fun acc sh ->
          Ints.fold
            (fun _ entry acc ->
              (entry.resource, holder_list entry, entry.queue) :: acc)
            sh.sh_entries acc)
        [] t.shards)
  |> List.sort compare

let mode_to_string = function IS -> "IS" | IX -> "IX" | S -> "S" | X -> "X"

let resource_to_string = function
  | Table t -> Printf.sprintf "table %s" t
  | Row (t, k) -> Printf.sprintf "row %s/%d" t k

let deadlock_cycle t ~txn =
  (* DFS over the waits-for graph's in-edges from [txn]: a cycle through
     [txn] exists exactly when [txn] reaches itself backwards. [chain] is
     the path found from [node] forward to [txn], [txn] left out. All
     shards are locked for the duration so the graph is a consistent
     snapshot even under parallel execution. *)
  with_all_shards t (fun () ->
      let visited = Hashtbl.create 16 in
      Hashtbl.replace visited txn ();
      let rec dfs chain node =
        let waiters = waiters_unlocked t ~txn:node in
        if List.mem txn waiters then Some (txn :: chain)
        else
          List.fold_left
            (fun acc w ->
              match acc with
              | Some _ -> acc
              | None ->
                if Hashtbl.mem visited w then None
                else begin
                  Hashtbl.replace visited w ();
                  dfs (w :: chain) w
                end)
            None waiters
      in
      dfs [] txn)

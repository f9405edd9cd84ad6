type kind =
  | Begin
  | Ready
  | Commit
  | Abort of { reason : string }
  | Finalize of { outcome : string }
  | Lock_wait of { resource : string; holders : int list }
  | Lock_grant
  | Entangle_block
  | Answer of { empty : bool }
  | Coord_round of { participants : int list }
  | Partner_match of { event : int; peers : int list }
  | Group_commit of { members : int list }
  | Widow_prevention
  | Pool_enter
  | Pool_exit
  | Run_start of { pool : int }
  | Run_end of { dormant : int }
  | Wal_append of { lsn : int }

type t = {
  seq : int;
  t_mono : float;
  t_sim : float;
  run : int;
  txn : int;
  task : int;
  domain : int;
  kind : kind;
}

let enabled = ref false
let set_logging b = enabled := b
let logging () = !enabled

let default_capacity = 65536
let ring : t option array ref = ref (Array.make default_capacity None)
let next = ref 0 (* total emitted since reset; ring slot = next mod cap *)
let run_id = ref 0
let sim_clock : (unit -> float) ref = ref (fun () -> 0.0)
let txn_task : (int, int) Hashtbl.t = Hashtbl.create 256

(* Guards the ring, [next] and the txn→task registry when engine layers
   emit from worker domains. Only taken when logging is on, so the
   off-by-default path stays one branch. *)
let mu = Mutex.create ()

let with_mu f =
  Mutex.lock mu;
  match f () with
  | v -> Mutex.unlock mu; v
  | exception e -> Mutex.unlock mu; raise e

(* Inside a parallel phase the scheduler switches the log into buffered
   mode: emissions, with their true timestamps, go to a {!Stamped}
   buffer, and the coordinator merges them into the ring in stamp order
   at the phase boundary. That order is an exact linearization of
   emission, so per-txn order and cross-txn lock-release/acquire order
   survive, while the hot path never touches the shared ring mutex. *)
let buffered = Atomic.make false
let pending : t Stamped.t = Stamped.create ()
let set_buffered b = Atomic.set buffered b

let set_capacity n =
  let n = max 1 n in
  ring := Array.make n None;
  next := 0

let reset () =
  Array.fill !ring 0 (Array.length !ring) None;
  next := 0;
  run_id := 0;
  Hashtbl.reset txn_task;
  Stamped.clear pending

let register_txn ~txn ~task =
  with_mu (fun () -> Hashtbl.replace txn_task txn task)

let task_of_txn txn = with_mu (fun () -> Hashtbl.find_opt txn_task txn)
let set_sim_clock f = sim_clock := f

let new_run () =
  incr run_id;
  !run_id

(* Puts an event into the next ring slot, assigning its [seq]; [mu]
   must be held. Task resolution happens here so buffered events see the
   complete txn→task registry at flush time ([register_txn] always goes
   straight through [mu]). *)
let commit_event e =
  let task =
    if e.task >= 0 then e.task
    else if e.txn >= 0 then
      match Hashtbl.find_opt txn_task e.txn with Some t -> t | None -> -1
    else -1
  in
  let r = !ring in
  r.(!next mod Array.length r) <- Some { e with seq = !next; task };
  incr next

(* [seq] is assigned when the event reaches the ring. The sim clock read
   is racy on workers, but the clock only advances on the coordinator
   between phases, so mid-phase reads are stable. *)
let capture ~txn ~task kind =
  {
    seq = -1;
    t_mono = Clock.monotonic ();
    t_sim = !sim_clock ();
    run = !run_id;
    txn;
    task;
    domain = (Domain.self () :> int);
    kind;
  }

let emit ?(txn = -1) ?(task = -1) kind =
  if !enabled then
    if Atomic.get buffered then Stamped.push pending (capture ~txn ~task kind)
    else with_mu (fun () -> commit_event (capture ~txn ~task kind))

let flush_buffered () =
  match Stamped.drain pending with
  | [] -> ()
  | evs -> with_mu (fun () -> List.iter commit_event evs)

let dropped () = max 0 (!next - Array.length !ring)

let events () =
  let r = !ring in
  let cap = Array.length r in
  let n = min !next cap in
  let first = !next - n in
  List.init n (fun i ->
      match r.((first + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let recent ?(ids = []) ~last () =
  let all = events () in
  let keep e =
    ids = [] || List.mem e.txn ids || List.mem e.task ids
  in
  let matching = List.filter keep all in
  let n = List.length matching in
  if n <= last then matching
  else List.filteri (fun i _ -> i >= n - last) matching

let kind_name = function
  | Begin -> "begin"
  | Ready -> "ready"
  | Commit -> "commit"
  | Abort _ -> "abort"
  | Finalize _ -> "finalize"
  | Lock_wait _ -> "lock_wait"
  | Lock_grant -> "lock_grant"
  | Entangle_block -> "entangle_block"
  | Answer _ -> "answer"
  | Coord_round _ -> "coord_round"
  | Partner_match _ -> "partner_match"
  | Group_commit _ -> "group_commit"
  | Widow_prevention -> "widow_prevention"
  | Pool_enter -> "pool_enter"
  | Pool_exit -> "pool_exit"
  | Run_start _ -> "run_start"
  | Run_end _ -> "run_end"
  | Wal_append _ -> "wal_append"

let ints ns = Json.List (List.map (fun n -> Json.Int n) ns)

let kind_json = function
  | Begin | Ready | Commit | Lock_grant | Entangle_block
  | Widow_prevention | Pool_enter | Pool_exit ->
      Json.Obj []
  | Abort { reason } -> Json.Obj [ ("reason", Json.Str reason) ]
  | Finalize { outcome } -> Json.Obj [ ("outcome", Json.Str outcome) ]
  | Lock_wait { resource; holders } ->
      Json.Obj [ ("resource", Json.Str resource); ("holders", ints holders) ]
  | Answer { empty } -> Json.Obj [ ("empty", Json.Bool empty) ]
  | Coord_round { participants } ->
      Json.Obj [ ("participants", ints participants) ]
  | Partner_match { event; peers } ->
      Json.Obj [ ("event", Json.Int event); ("peers", ints peers) ]
  | Group_commit { members } -> Json.Obj [ ("members", ints members) ]
  | Run_start { pool } -> Json.Obj [ ("pool", Json.Int pool) ]
  | Run_end { dormant } -> Json.Obj [ ("dormant", Json.Int dormant) ]
  | Wal_append { lsn } -> Json.Obj [ ("lsn", Json.Int lsn) ]

let to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("t_sim", Json.Float e.t_sim);
      ("run", Json.Int e.run);
      ("txn", Json.Int e.txn);
      ("task", Json.Int e.task);
      ("domain", Json.Int e.domain);
      ("kind", Json.Str (kind_name e.kind));
      ("args", kind_json e.kind);
    ]

let render e =
  let detail =
    match e.kind with
    | Abort { reason } -> Printf.sprintf " reason=%s" reason
    | Finalize { outcome } -> Printf.sprintf " outcome=%s" outcome
    | Lock_wait { resource; holders } ->
        Printf.sprintf " resource=%s holders=[%s]" resource
          (String.concat "," (List.map string_of_int holders))
    | Answer { empty } -> Printf.sprintf " empty=%b" empty
    | Coord_round { participants } ->
        Printf.sprintf " participants=[%s]"
          (String.concat "," (List.map string_of_int participants))
    | Partner_match { event; peers } ->
        Printf.sprintf " event=%d peers=[%s]" event
          (String.concat "," (List.map string_of_int peers))
    | Group_commit { members } ->
        Printf.sprintf " members=[%s]"
          (String.concat "," (List.map string_of_int members))
    | Run_start { pool } -> Printf.sprintf " pool=%d" pool
    | Run_end { dormant } -> Printf.sprintf " dormant=%d" dormant
    | Wal_append { lsn } -> Printf.sprintf " lsn=%d" lsn
    | Begin | Ready | Commit | Lock_grant | Entangle_block
    | Widow_prevention | Pool_enter | Pool_exit ->
        ""
  in
  Printf.sprintf "#%d run=%d sim=%.6f task=%d txn=%d dom=%d %s%s" e.seq e.run
    e.t_sim e.task e.txn e.domain (kind_name e.kind) detail

open Ent_storage
module Obs = Ent_obs.Obs
module Fault = Ent_fault.Injector

let m_appends = Obs.counter "txn.wal.appends"
let m_compactions = Obs.counter "txn.wal.compactions"
let m_saves = Obs.counter "txn.wal.saves"
let m_loads = Obs.counter "txn.wal.loads"
let m_records = Obs.gauge "txn.wal.records"

(* Injection points: a crash can land on either side of any append
   boundary, the final record can be torn, and a log flush (save) can
   fail partway through the file. *)
let s_append = Fault.site "txn.wal.append"
let s_append_post = Fault.site "txn.wal.append.post"
let s_save = Fault.site "txn.wal.save"

type lsn = int

type record =
  | Begin of int
  | Write of {
      txn : int;
      table : string;
      row : int;
      before : Tuple.t option;
      after : Tuple.t option;
    }
  | Commit of int
  | Abort of int
  | Create of { table : string; columns : (string * Schema.col_type) list }
  | Entangle_group of { event : int; members : int list }
  | Pool_snapshot of string list
  | Checkpoint of {
      tables :
        (string * (string * Schema.col_type) list * (int * Tuple.t) list) list;
    }
  | Drop of { table : string }

type t = {
  mutable log : record list;
  mutable len : int;
  mutable torn : bool;
  mu : Mutex.t;
}
(* [log] is kept reversed for O(1) append. [torn] marks the final
   record as half-durable: it is in the in-memory log but would not
   survive a crash (see [crash_records]). [mu] makes appends atomic
   under domain-parallel execution; readers (records, save, compact)
   run at quiescence on the coordinator. *)

let create () = { log = []; len = 0; torn = false; mu = Mutex.create () }

let push t record =
  Mutex.lock t.mu;
  let lsn = t.len in
  t.log <- record :: t.log;
  t.len <- t.len + 1;
  Mutex.unlock t.mu;
  Obs.incr m_appends;
  Obs.set m_records (float_of_int t.len);
  lsn

let append t record =
  (match Fault.fire s_append with
  | None | Some Ent_fault.Plan.Drop -> ()
  | Some (Ent_fault.Plan.Crash | Ent_fault.Plan.Fail) ->
    (* crash before the append boundary: the record never reaches the log *)
    Fault.crash s_append
  | Some Ent_fault.Plan.Torn ->
    (* the record reaches the log but its tail is not durable *)
    ignore (push t record);
    t.torn <- true;
    Fault.crash s_append);
  let lsn = push t record in
  if Ent_obs.Event.logging () then begin
    let txn =
      match record with
      | Begin n | Commit n | Abort n -> n
      | Write { txn; _ } -> txn
      | Create _ | Entangle_group _ | Pool_snapshot _ | Checkpoint _ | Drop _ -> -1
    in
    Ent_obs.Event.emit ~txn (Ent_obs.Event.Wal_append { lsn })
  end;
  (* crash after the append boundary: the record is durable *)
  Fault.hit s_append_post;
  lsn

(* Seed a log with already-durable records (recovery continues the
   crashed log instead of re-logging the recovered state): these bytes
   are on stable storage already, so no injection sites fire. *)
let restore t records = List.iter (fun r -> ignore (push t r)) records

let records t = List.rev t.log
let length t = t.len

(* The records a crash at this instant would leave durable. *)
let crash_records t =
  let all = records t in
  if not t.torn then all
  else List.filteri (fun i _ -> i < t.len - 1) all

let prefix t n =
  let all = records t in
  List.filteri (fun i _ -> i < n) all

(* Records from the last sharp checkpoint onward (checkpoint included);
   all of them without one. *)
let since_checkpoint records =
  let rec last tail = function
    | [] -> tail
    | Checkpoint _ :: rest as from -> last from rest
    | _ :: rest -> last tail rest
  in
  last records records

let compact t =
  match since_checkpoint (records t) with
  | Checkpoint _ :: _ as kept ->
    t.log <- List.rev kept;
    t.len <- List.length kept;
    Obs.incr m_compactions;
    Obs.set m_records (float_of_int t.len)
  | _ -> ()

(* On-disk format: magic, then one length-prefixed marshalled frame
   per record. Framing makes torn writes a first-class case: a crash
   mid-save leaves a partial final frame, and [load] silently discards
   that tail instead of losing the whole file. *)
let magic = "ENTWAL2\n"

let save t path =
  Obs.incr m_saves;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      List.iter
        (fun r ->
          let payload = Marshal.to_string r [] in
          match Fault.fire s_save with
          | Some (Ent_fault.Plan.Fail | Ent_fault.Plan.Crash) ->
            (* flush failure: the file ends at a record boundary *)
            Fault.fail s_save
          | Some Ent_fault.Plan.Torn ->
            (* torn write: half of the final frame reaches the disk *)
            output_binary_int oc (String.length payload);
            output_string oc (String.sub payload 0 (String.length payload / 2));
            Fault.fail s_save
          | Some Ent_fault.Plan.Drop | None ->
            output_binary_int oc (String.length payload);
            output_string oc payload)
        (records t))

let load path =
  Obs.incr m_loads;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let header =
        try really_input_string ic (String.length magic)
        with End_of_file -> failwith "Wal.load: not an entangled WAL file"
      in
      if header <> magic then failwith "Wal.load: not an entangled WAL file";
      let t = create () in
      let rec read () =
        match input_binary_int ic with
        | exception End_of_file -> ()  (* clean end, or a torn length header *)
        | len when len < 0 -> failwith "Wal.load: corrupt record length"
        | len -> (
          match really_input_string ic len with
          | exception End_of_file -> ()  (* torn final frame: discard *)
          | payload ->
            ignore (push t (Marshal.from_string payload 0 : record));
            read ())
      in
      read ();
      t)

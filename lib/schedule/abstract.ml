type store = (History.obj * int) list

type execution = {
  final : store;
  event_grounds : (int * ((int * History.obj) * int) list) list;
  event_answers : (int * int) list;
}

(* The store is a list of cells because objects overlap structurally
   (a Table object covers its rows); reads of a Table observe the
   combined value of every overlapping cell. *)
module Cells = struct
  type t = (History.obj, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let read (t : t) obj =
    (* combine all overlapping cells deterministically *)
    let hits =
      Hashtbl.fold
        (fun o v acc -> if History.overlaps obj o then (o, v) :: acc else acc)
        t []
    in
    match List.sort compare hits with
    | [] -> 0
    | sorted -> Hashtbl.hash sorted

  let write (t : t) obj v = Hashtbl.replace t obj v

  let snapshot (t : t) : store =
    Hashtbl.fold (fun o v acc -> if v = 0 then acc else (o, v) :: acc) t []
    |> List.sort compare
end

let write_value txn observations = Hashtbl.hash (txn, observations)

(* §C.1 defines the final database as "exactly the writes of all the
   committed transactions in σ, in the order in which these writes
   occurred" — aborted writes simply never count. During execution,
   reads observe the live store, which may contain uncommitted writes
   (dirty reads, which Requirement C.3 excludes for committed readers).
   An abort takes the aborted transaction's writes out of the live
   store, as the engine undoes them before it logs the abort: a read
   after the abort sees the other writes, in their order. *)
let execute schedule =
  let cells = Cells.create () in
  let obs : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let observe i v =
    Hashtbl.replace obs i (v :: Option.value ~default:[] (Hashtbl.find_opt obs i))
  in
  let ground_buf : (int, ((int * History.obj) * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let write_log = ref [] in  (* (txn, obj, value), newest first *)
  let undo i =
    write_log := List.filter (fun (j, _, _) -> j <> i) !write_log;
    Hashtbl.reset cells;
    List.iter (fun (_, x, value) -> Cells.write cells x value) (List.rev !write_log)
  in
  let event_grounds = ref [] in
  let event_answers = ref [] in
  List.iter
    (fun (op : History.op) ->
      match op with
      | Read (i, x) -> observe i (Cells.read cells x)
      | Ground_read (i, x) ->
        (* Grounding reads are performed by the system on the
           transaction's behalf; the transaction itself observes their
           effect only through the entangled answer (so replay, where
           the oracle substitutes for grounding, stays deterministic). *)
        let v = Cells.read cells x in
        Hashtbl.replace ground_buf i
          (Option.value ~default:[] (Hashtbl.find_opt ground_buf i)
          @ [ ((i, x), v) ])
      | Quasi_read _ -> ()  (* information flows via the answer *)
      | Write (i, x) ->
        let value = write_value i (Option.value ~default:[] (Hashtbl.find_opt obs i)) in
        write_log := (i, x, value) :: !write_log;
        Cells.write cells x value
      | Entangle (k, participants) ->
        let grounds =
          List.concat_map
            (fun j -> Option.value ~default:[] (Hashtbl.find_opt ground_buf j))
            participants
        in
        List.iter (fun j -> Hashtbl.remove ground_buf j) participants;
        let answer = Hashtbl.hash (List.sort compare grounds) in
        event_grounds := (k, grounds) :: !event_grounds;
        event_answers := (k, answer) :: !event_answers;
        List.iter (fun i -> observe i answer) participants
      | Abort i -> undo i
      | Commit _ -> ())
    schedule;
  let committed = History.committed schedule in
  let final_cells = Cells.create () in
  List.iter
    (fun (i, x, value) ->
      if List.mem i committed then Cells.write final_cells x value)
    (List.rev !write_log);
  {
    final = Cells.snapshot final_cells;
    event_grounds = List.rev !event_grounds;
    event_answers = List.rev !event_answers;
  }

type replay = {
  replay_final : store;
  replay_valid : bool;
}

let replay schedule exec order =
  let cells = Cells.create () in
  let valid = ref true in
  List.iter
    (fun txn ->
      let observations = ref [] in
      let observe v = observations := v :: !observations in
      List.iter
        (fun (op : History.op) ->
          match op with
          | Read (i, x) when i = txn -> observe (Cells.read cells x)
          | Ground_read (_, _) | Quasi_read (_, _) ->
            ()  (* replaced by the oracle call at the entangle op *)
          | Write (i, x) when i = txn ->
            Cells.write cells x (write_value txn !observations)
          | Entangle (k, participants) when List.mem txn participants ->
            (* Validating reads (proof of Theorem 3.6): re-perform this
               transaction's own grounding reads and compare with the
               values its answer was computed from. Partners' grounding
               reads are their own validating reads at their oracle
               calls. *)
            let grounds = List.assoc k exec.event_grounds in
            List.iter
              (fun ((j, x), recorded) ->
                if j = txn && Cells.read cells x <> recorded then valid := false)
              grounds;
            observe (List.assoc k exec.event_answers)
          | Read _ | Write _ | Entangle _ | Commit _ | Abort _ -> ())
        schedule)
    order;
  { replay_final = Cells.snapshot cells; replay_valid = !valid }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun rest -> x :: rest)
          (permutations (List.filter (fun y -> y <> x) l)))
      l

let oracle_serializable schedule =
  let exec = execute schedule in
  let committed = History.committed schedule in
  let check order =
    let r = replay schedule exec order in
    r.replay_valid && r.replay_final = exec.final
  in
  let expanded = History.expand_quasi_reads schedule in
  let topo = Conflict.topo_order (Conflict.of_schedule expanded) in
  match topo with
  | Some order when check order -> true
  | _ ->
    if List.length committed <= 7 then List.exists check (permutations committed)
    else false

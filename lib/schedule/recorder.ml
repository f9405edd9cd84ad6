type t = { mutable ops : History.op list (* newest first *) }

let create () = { ops = [] }
let push t op = t.ops <- op :: t.ops
let on_engine_event t ev = Option.iter (push t) (History.of_engine_event ev)

let on_entangle t ~event participants =
  push t (History.Entangle (event, List.map fst participants))

let history t = List.rev t.ops

let completed_history t =
  let all = history t in
  let terminated = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace terminated i ())
    (History.committed all @ History.aborted all);
  let is_terminated i = Hashtbl.mem terminated i in
  List.filter_map
    (fun (op : History.op) ->
      match op with
      | Entangle (k, participants) ->
        let live = List.filter is_terminated participants in
        if live = [] then None else Some (History.Entangle (k, live))
      | op ->
        if List.for_all is_terminated (History.txns_of_op op) then Some op
        else None)
    all

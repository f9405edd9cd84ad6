type t = {
  nodes : int list;
  edges : (int * int) list;
}

let read_write_of (op : History.op) =
  match op with
  | Read (i, x) | Ground_read (i, x) | Quasi_read (i, x) -> Some (i, x, false)
  | Write (i, x) -> Some (i, x, true)
  | Entangle _ | Commit _ | Abort _ -> None

(* Objects can only overlap within the same table (or the same Named
   object), so group data operations by that key; within a group only
   pairs involving at least one write can conflict, so it suffices to
   compare every write against the group. This keeps construction near
   O(ops + writes * group size) instead of O(ops^2) — recorded
   histories of benchmark workloads reach hundreds of thousands of
   operations. *)
let of_schedule schedule =
  let committed = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace committed i ()) (History.committed schedule);
  let groups : (string, (int * int * History.obj * bool) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let position = ref 0 in
  List.iter
    (fun op ->
      match read_write_of op with
      | Some (txn, obj, is_write) when Hashtbl.mem committed txn ->
        incr position;
        let key = History.group_key obj in
        let group =
          match Hashtbl.find_opt groups key with
          | Some g -> g
          | None ->
            let g = ref [] in
            Hashtbl.add groups key g;
            g
        in
        group := (!position, txn, obj, is_write) :: !group
      | Some _ | None -> ())
    schedule;
  let edge_set = Hashtbl.create 64 in
  let add_edge a b = if a <> b then Hashtbl.replace edge_set (a, b) () in
  Hashtbl.iter
    (fun _ group ->
      let ops = !group in  (* newest first *)
      let writes = List.filter (fun (_, _, _, w) -> w) ops in
      List.iter
        (fun (wpos, wtxn, wobj, _) ->
          List.iter
            (fun (opos, otxn, oobj, _) ->
              if otxn <> wtxn && History.overlaps wobj oobj then
                if opos < wpos then add_edge otxn wtxn
                else if opos > wpos then add_edge wtxn otxn)
            ops)
        writes)
    groups;
  {
    nodes = History.committed schedule;
    edges =
      List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edge_set []);
  }

let nodes t = t.nodes
let edges t = t.edges

let successors t i =
  List.filter_map (fun (a, b) -> if a = i then Some b else None) t.edges

let topo_order t =
  (* Kahn's algorithm; deterministic (lowest id first). *)
  let in_degree = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace in_degree n 0) t.nodes;
  List.iter
    (fun (_, b) -> Hashtbl.replace in_degree b (1 + Hashtbl.find in_degree b))
    t.edges;
  let rec go order remaining =
    if remaining = [] then Some (List.rev order)
    else
      let ready =
        List.filter (fun n -> Hashtbl.find in_degree n = 0) remaining
      in
      match List.sort Int.compare ready with
      | [] -> None
      | n :: _ ->
        List.iter
          (fun s -> Hashtbl.replace in_degree s (Hashtbl.find in_degree s - 1))
          (successors t n);
        go (n :: order) (List.filter (fun m -> m <> n) remaining)
  in
  go [] t.nodes

let has_cycle t = topo_order t = None

type outcome = Coordinate.outcome =
  | Answered of Ground.grounding
  | Empty
  | No_partner

type combined = {
  member_ids : int list;
  constraints : ((int * int) * (int * int)) list;
}

(* All (provider query, head index) whose head pattern unifies with
   post pattern [post]. *)
let providers_of queries (post : Ir.atom) =
  List.concat_map
    (fun (qj, (q : Ir.t)) ->
      List.concat
        (List.mapi
           (fun hl head -> if Ir.unifiable post head then [ (qj, hl) ] else [])
           q.head))
    queries

let compile ?(max_matchings = 64) queries =
  (* Drop queries that cannot participate at all; what remains has at
     least one candidate provider for every postcondition. *)
  let blocked = Coordinate.structurally_blocked queries in
  let participants =
    List.filter (fun (qid, _) -> not (List.mem qid blocked)) queries
  in
  (* pattern-level component structure *)
  let uf = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt uf x with
    | None ->
      Hashtbl.replace uf x x;
      x
    | Some p when p = x -> x
    | Some p ->
      let root = find p in
      Hashtbl.replace uf x root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace uf ra rb
  in
  (* slots: (qid, post index, candidate providers) *)
  let slots =
    List.concat_map
      (fun (qid, (q : Ir.t)) ->
        List.mapi
          (fun pk post ->
            let candidates = providers_of participants post in
            List.iter (fun (qj, _) -> union qid qj) candidates;
            ((qid, pk), candidates))
          q.post)
      participants
  in
  List.iter (fun (qid, _) -> ignore (find qid)) participants;
  let components =
    let roots = Hashtbl.create 8 in
    List.iter
      (fun (qid, _) ->
        let r = find qid in
        let existing = Option.value ~default:[] (Hashtbl.find_opt roots r) in
        Hashtbl.replace roots r (qid :: existing))
      participants;
    Hashtbl.fold (fun _ members acc -> List.sort Int.compare members :: acc) roots []
    |> List.sort compare
  in
  (* Enumerate complete matchings per component, bounded. *)
  List.concat_map
    (fun member_ids ->
      let my_slots =
        List.filter (fun ((qid, _), _) -> List.mem qid member_ids) slots
      in
      let matchings = ref [] in
      let count = ref 0 in
      let rec enumerate chosen = function
        | [] ->
          if !count < max_matchings then begin
            incr count;
            matchings := List.rev chosen :: !matchings
          end
        | (slot, candidates) :: rest ->
          List.iter
            (fun candidate ->
              if !count < max_matchings then
                enumerate ((slot, candidate) :: chosen) rest)
            candidates
      in
      enumerate [] my_slots;
      List.rev_map
        (fun constraints -> { member_ids; constraints })
        !matchings
      |> List.rev)
    components

(* Check every constraint whose endpoints are both assigned. *)
let constraints_hold constraints assignment =
  List.for_all
    (fun ((qi, pk), (qj, hl)) ->
      match List.assoc_opt qi assignment, List.assoc_opt qj assignment with
      | Some (gi : Ground.grounding), Some (gj : Ground.grounding) ->
        List.nth gi.g_post pk = List.nth gj.g_head hl
      | _ -> true)
    constraints

let solve_combined ~budget combined groundings_of =
  (* Join member groundings in id order under the matching's equality
     constraints. Returns the first complete assignment. *)
  let steps = ref 0 in
  let rec go assignment = function
    | [] -> Some assignment
    | qid :: rest ->
      let rec try_groundings = function
        | [] -> None
        | g :: gs ->
          incr steps;
          if !steps > budget then None
          else
            let assignment' = (qid, g) :: assignment in
            if constraints_hold combined.constraints assignment' then
              match go assignment' rest with
              | Some solution -> Some solution
              | None -> try_groundings gs
            else try_groundings gs
      in
      try_groundings (groundings_of qid)
  in
  go [] combined.member_ids

let evaluate ?(max_matchings = 64) queries =
  let patterns = List.map (fun (qid, ir, _) -> (qid, ir)) queries in
  let blocked = Coordinate.structurally_blocked patterns in
  let combineds = compile ~max_matchings patterns in
  let groundings_of qid =
    match List.find_opt (fun (q, _, _) -> q = qid) queries with
    | Some (_, _, gs) -> gs
    | None -> []
  in
  let assignment : (int, Ground.grounding) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun combined ->
      if List.for_all (fun qid -> not (Hashtbl.mem assignment qid)) combined.member_ids
      then
        match solve_combined ~budget:200_000 combined groundings_of with
        | Some solution ->
          List.iter (fun (qid, g) -> Hashtbl.replace assignment qid g) solution
        | None -> ())
    combineds;
  List.map
    (fun (qid, _, _) ->
      if List.mem qid blocked then (qid, No_partner)
      else
        match Hashtbl.find_opt assignment qid with
        | Some g -> (qid, Answered g)
        | None -> (qid, Empty))
    queries

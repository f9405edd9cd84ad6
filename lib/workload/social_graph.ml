type t = {
  adjacency : int list array;  (* sorted, no duplicates *)
}

let users t = Array.length t.adjacency
let friends t u = if u < 0 || u >= users t then [] else t.adjacency.(u)
let degree t u = List.length (friends t u)

let nth_friend t u k =
  match friends t u with
  | [] -> None
  | fs ->
    let d = List.length fs in
    (* [mod] keeps the sign of [k]; wrap a negative [k] into [0, d) *)
    Some (List.nth fs (((k mod d) + d) mod d))

let edge_count t = Array.fold_left (fun acc fs -> acc + List.length fs) 0 t.adjacency

(* Each node's friend list may name a friend more than once until one
   sort per node dedupes it: O(E log d) for E edges and degree d. *)
let link sets a b =
  sets.(a) <- b :: sets.(a);
  sets.(b) <- a :: sets.(b)

let of_sets sets = { adjacency = Array.map (List.sort_uniq Int.compare) sets }

let of_edge_list ~n edges =
  let sets = Array.make n [] in
  List.iter
    (fun (a, b) -> if a <> b && a >= 0 && a < n && b >= 0 && b < n then link sets a b)
    edges;
  of_sets sets

let generate ?(seed = 1) ~users ~edges_per_node () =
  if users < 2 then invalid_arg "Social_graph.generate: need at least 2 users";
  let rng = Random.State.make [| seed; users; edges_per_node |] in
  let per_node = max 1 edges_per_node in
  (* Preferential attachment via the repeated-endpoints urn (Batagelj and
     Brandes 2005): every edge end is a slot, so a uniform slot is a node
     drawn in proportion to its degree. Slots are appended oldest first;
     a draw counts back from the newest slot, the order that the graphs
     pinned in test_workload.ml were drawn in. *)
  let urn = Array.make (2 + ((users - 2) * (per_node + 1))) 0 in
  (* the first edge's ends, 0 the newer *)
  urn.(0) <- 1;
  urn.(1) <- 0;
  let size = ref 2 in
  let push x =
    urn.(!size) <- x;
    incr size
  in
  let sets = Array.make users [] in
  link sets 0 1;
  for v = 2 to users - 1 do
    let m = min v per_node in
    (* not randomized: [iter]'s order is the urn's push order, so it must
       not depend on OCAMLRUNPARAM's [R] *)
    let chosen = Hashtbl.create ~random:false m in
    let attempts = ref 0 in
    while Hashtbl.length chosen < m && !attempts < 20 * m do
      incr attempts;
      let target = urn.(!size - 1 - Random.State.int rng !size) in
      if target <> v then Hashtbl.replace chosen target ()
    done;
    Hashtbl.iter
      (fun target () ->
        link sets v target;
        push target)
      chosen;
    push v
  done;
  of_sets sets

let parse_edges text =
  let lines = String.split_on_char '\n' text in
  let raw =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match
            String.split_on_char '\t' line
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter (fun s -> s <> "")
          with
          | [ a; b ] -> (
            match int_of_string_opt a, int_of_string_opt b with
            | Some a, Some b -> Some (a, b)
            | _ -> None)
          | _ -> None)
      lines
  in
  (* dense remap *)
  let mapping = Hashtbl.create 1024 in
  let next = ref 0 in
  let map x =
    match Hashtbl.find_opt mapping x with
    | Some i -> i
    | None ->
      let i = !next in
      Hashtbl.replace mapping x i;
      incr next;
      i
  in
  let edges =
    List.map
      (fun (a, b) ->
        let a = map a in
        let b = map b in
        (a, b))
      raw
  in
  of_edge_list ~n:!next edges

let load_edges path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_edges text

module Event = Ent_obs.Event

(* Union-find over task ids. Each root also keeps its group's member
   list, sorted: [join] merges the lists of the roots it links, so
   [members] returns a stored list instead of folding the table. A
   root without an entry has never joined: its group is itself. *)
type t = {
  parent : (int, int) Hashtbl.t;
  members : (int, int list) Hashtbl.t;  (** root -> sorted members *)
}

let create () = { parent = Hashtbl.create 32; members = Hashtbl.create 32 }

let rec find t x =
  match Hashtbl.find_opt t.parent x with
  | None ->
    Hashtbl.replace t.parent x x;
    x
  | Some p when p = x -> x
  | Some p ->
    let root = find t p in
    Hashtbl.replace t.parent x root;
    root

let members_of_root t root =
  Option.value ~default:[ root ] (Hashtbl.find_opt t.members root)

let join t ids =
  match ids with
  | [] -> ()
  | first :: rest ->
    let root = find t first in
    List.iter
      (fun id ->
        let r = find t id in
        if r <> root then begin
          Hashtbl.replace t.parent r root;
          Hashtbl.replace t.members root
            (List.merge Int.compare (members_of_root t root)
               (members_of_root t r));
          Hashtbl.remove t.members r
        end)
      rest

let members t id = members_of_root t (find t id)
let same_group t a b = find t a = find t b

let entangled t id =
  match members t id with
  | _ :: _ :: _ -> true
  | _ -> false

let reset t =
  Hashtbl.reset t.parent;
  Hashtbl.reset t.members

(* Partition [items] by their group in [t], in one pass: groups in
   order of their first item, each group's items in input order. A
   group is keyed by its smallest member id. *)
let by_group t id_of items =
  let buckets = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let key = List.hd (members t (id_of item)) in
      match Hashtbl.find_opt buckets key with
      | Some bucket -> bucket := item :: !bucket
      | None ->
        let bucket = ref [ item ] in
        Hashtbl.add buckets key bucket;
        order := bucket :: !order)
    items;
  List.rev_map (fun bucket -> List.rev !bucket) !order

(* --- entanglement operations ---

   After coordination, the answered queries decompose into connected
   components: q is linked to q' when one of q's chosen postconditions
   is provided by q''s chosen head. Each component is one entanglement
   operation E (it corresponds to one connected combined query in the
   algorithm of [6]). *)
let id_of (id, _, _) = id

let components answered =
  let uf = create () in
  let providers : (Ent_entangle.Ir.ground_atom, int list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (id, _, (g : Ent_entangle.Ground.grounding)) ->
      List.iter
        (fun atom ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt providers atom) in
          Hashtbl.replace providers atom (id :: existing))
        g.g_head)
    answered;
  List.iter
    (fun (id, _, (g : Ent_entangle.Ground.grounding)) ->
      List.iter
        (fun atom ->
          match Hashtbl.find_opt providers atom with
          | Some owners -> join uf (id :: owners)
          | None -> ())
        g.g_post)
    answered;
  by_group uf id_of answered

let entangle t engine ~next_event ~txn_of ?on_entangle answered =
  List.iter
    (fun component ->
      let event = next_event () in
      let ids = List.map id_of component in
      (* One Partner_match per member: each names the peers it was
         entangled with, giving the exporter its causal (flow) edges. *)
      if Event.logging () then
        List.iter
          (fun (id, txn, _) ->
            Event.emit ~txn ~task:id
              (Event.Partner_match
                 { event; peers = List.filter (fun i -> i <> id) ids }))
          component;
      join t ids;
      (* Group members share lock ownership from now on: they will
         commit or abort together, so a member writing a table its
         partner grounding-read must not self-block the group. Retag
         the whole (possibly merged) group with its smallest id. *)
      let group = members t (List.hd ids) in
      List.iter
        (fun id ->
          match txn_of id with
          | Some txn when Ent_txn.Engine.is_live txn ->
            Ent_txn.Engine.set_lock_group engine ~txn:(Ent_txn.Engine.id txn)
              ~group:(List.hd group)
          | _ -> ())
        group;
      let txns = List.map (fun (_, txn, _) -> txn) component in
      Ent_txn.Engine.log_entangle_group engine ~event ~members:txns;
      match on_entangle with
      | Some hook ->
        hook ~event
          (List.filter_map
             (fun (id, txn, _) ->
               Option.map (fun h -> (txn, Ent_txn.Engine.grounding_reads h)) (txn_of id))
             component)
      | None -> ())
    (components answered)

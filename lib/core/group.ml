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

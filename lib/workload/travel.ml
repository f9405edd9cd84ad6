open Ent_storage

type t = {
  manager : Ent_core.Manager.t;
  graph : Social_graph.t;
  cities : string array;
  shapes : Ent_sql.Parser.Shapes.t option;
}

let hometown_index ~cities uid = uid mod cities

let build ?(seed = 1) ?(users = 500) ?(cities = 12) ?(edges_per_node = 4)
    ?config ?(wal = false) () =
  if cities < 3 then invalid_arg "Travel.build: need at least 3 cities";
  let manager = Ent_core.Manager.create ~wal ?config () in
  let graph = Social_graph.generate ~seed ~users ~edges_per_node () in
  let city_names = Array.init cities (fun i -> Printf.sprintf "C%02d" i) in
  let open Ent_core.Manager in
  define_table manager "User" [ ("uid", Schema.T_int); ("hometown", Schema.T_str) ];
  define_table manager "Friends" [ ("uid1", Schema.T_int); ("uid2", Schema.T_int) ];
  define_table manager "Flight"
    [ ("source", Schema.T_str); ("destination", Schema.T_str); ("fid", Schema.T_int) ];
  define_table manager "Reserve" [ ("uid", Schema.T_int); ("fid", Schema.T_int) ];
  for uid = 0 to users - 1 do
    load_row manager "User"
      [ Int uid; Str city_names.(hometown_index ~cities uid) ]
  done;
  for uid = 0 to users - 1 do
    List.iter
      (fun friend -> load_row manager "Friends" [ Int uid; Int friend ])
      (Social_graph.friends graph uid)
  done;
  let fid = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            load_row manager "Flight" [ Str src; Str dst; Int !fid ];
            incr fid
          end)
        city_names)
    city_names;
  add_index manager "User" [ "uid" ];
  add_index manager "User" [ "uid"; "hometown" ];
  add_index manager "Friends" [ "uid1" ];
  add_index manager "Friends" [ "uid1"; "uid2" ];
  add_index manager "Flight" [ "source" ];
  add_index manager "Flight" [ "source"; "destination" ];
  { manager; graph; cities = city_names; shapes = Some (Ent_sql.Parser.Shapes.create ()) }

let hometown t uid = t.cities.(hometown_index ~cities:(Array.length t.cities) uid)

let destination_for t uid ~salt =
  let cities = Array.length t.cities in
  let home = hometown_index ~cities uid in
  let candidate = (uid + salt) mod cities in
  t.cities.(if candidate = home then (candidate + 1) mod cities else candidate)

let reservations t =
  List.length (Ent_core.Manager.query t.manager "SELECT uid FROM Reserve")

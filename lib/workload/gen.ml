type kind =
  | No_social
  | Social
  | Entangled

let kind_name = function
  | No_social -> "nosocial"
  | Social -> "social"
  | Entangled -> "entangled"

(* Each program text is one [String.concat] of its pieces: the label,
   the header, the statements with their literals, and the COMMIT. *)

(* Appendix D, first workload: look up the hometown, find a flight to
   the destination, reserve it. *)
let no_social_body world ~uid ~tag =
  let dest = Travel.destination_for world uid ~salt:tag in
  [ "SELECT @uid, @hometown FROM User WHERE uid="; string_of_int uid;
    ";\nSELECT @fid FROM Flight WHERE source=@hometown AND destination='"; dest;
    "' LIMIT 1;\nINSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);" ]

(* Appendix D, second workload: additionally look up a friend from the
   same hometown who might be flying. *)
let social_body world ~uid ~tag =
  let dest = Travel.destination_for world uid ~salt:tag in
  [ "SELECT @uid, @hometown FROM User WHERE uid="; string_of_int uid;
    ";\nSELECT uid2 FROM Friends, User AS u1, User AS u2\n\
     WHERE Friends.uid1=@uid AND Friends.uid2=u2.uid AND u1.uid=@uid\n\
     AND u1.hometown=u2.hometown LIMIT 1;\n\
     SELECT @fid FROM Flight WHERE source=@hometown AND destination='";
    dest; "' LIMIT 1;\nINSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);" ]

(* Appendix D, third workload: coordinate the destination with a
   specific friend through an entangled query, then book a flight
   there. The friendship is verified in the grounding (as in the
   paper's example); the pair tag keeps concurrent coordinations with
   the same user apart. *)
let entangled_body ~uid ~partner ~tag =
  let friendship_check rest =
    if partner >= 0 then
      let partner = string_of_int partner in
      "AND (" :: partner :: ") IN (SELECT uid2 FROM Friends WHERE uid1="
      :: string_of_int uid :: " AND uid2=" :: partner :: ")\n" :: rest
    else rest
  in
  let uid = string_of_int uid and partner = string_of_int partner
  and tag = string_of_int tag in
  "SELECT @uid, @hometown FROM User WHERE uid=" :: uid :: ";\nSELECT " :: uid :: ", "
  :: tag
  :: ", dst AS @destination INTO ANSWER Meet\n\
      WHERE (dst) IN (SELECT destination FROM Flight WHERE source=@hometown)\n"
  :: friendship_check
       [ "AND ("; partner; ", "; tag;
         ", dst) IN ANSWER Meet\n\
          CHOOSE 1;\n\
          SELECT @fid FROM Flight WHERE source=@hometown AND destination=@destination \
          LIMIT 1;\n\
          INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);" ]

let block ?(timeout = "") body =
  String.concat "" (("BEGIN TRANSACTION" :: timeout :: ";\n" :: body) @ [ "\nCOMMIT;" ])

let wrap world ~label ~transactional text =
  Ent_core.Program.of_string ~label ~transactional ?shapes:world.Travel.shapes text

let text world kind ~uid ~partner ~tag =
  let label =
    String.concat "" [ kind_name kind; "-"; string_of_int uid; "-"; string_of_int tag ]
  in
  ( label,
    match kind with
    | No_social -> block (no_social_body world ~uid ~tag)
    | Social -> block (social_body world ~uid ~tag)
    | Entangled ->
      block ~timeout:" WITH TIMEOUT 2 DAYS" (entangled_body ~uid ~partner ~tag) )

let program world ~transactional kind ~uid ~partner ~tag =
  let label, text = text world kind ~uid ~partner ~tag in
  wrap world ~label ~transactional text

(* Friend pairs, cycling over the graph deterministically. *)
let friend_pair world k =
  let n = Social_graph.users world.Travel.graph in
  let rec find u tries =
    if tries > n then (0, 1)  (* degenerate graph fallback *)
    else
      match Social_graph.nth_friend world.Travel.graph u k with
      | Some v -> (u, v)
      | None -> find ((u + 1) mod n) (tries + 1)
  in
  find (k * 7 mod n) 0

let batch world ~transactional kind ~n ~tag_base =
  match kind with
  | No_social | Social ->
    List.init n (fun i ->
        let uid = i * 13 mod Social_graph.users world.Travel.graph in
        program world ~transactional kind ~uid ~partner:(-1) ~tag:(tag_base + i))
  | Entangled ->
    List.concat
      (List.init ((n + 1) / 2) (fun k ->
           let u, v = friend_pair world (tag_base + k) in
           let tag = tag_base + k in
           [ program world ~transactional Entangled ~uid:u ~partner:v ~tag;
             program world ~transactional Entangled ~uid:v ~partner:u ~tag ]))
    |> List.filteri (fun i _ -> i < n)

let lonely world ~n ~tag_base =
  List.init n (fun i ->
      let uid = i mod Social_graph.users world.Travel.graph in
      program world ~transactional:true Entangled ~uid ~partner:(-1)
        ~tag:(tag_base + i))

(* --- Figure 6(c) coordination structures --- *)

let structured_query world ~me ~tag ~partner =
  Printf.sprintf
    "SELECT %d, %d, dst AS @destination INTO ANSWER Meet\n\
     WHERE (dst) IN (SELECT destination FROM Flight WHERE source='%s')\n\
     AND (%d, %d, dst) IN ANSWER Meet\n\
     CHOOSE 1"
    me tag (Travel.hometown world me) partner tag

let structured_program world ~label ~uid queries =
  let home = Travel.hometown world uid in
  let body =
    String.concat ";\n" queries
    ^ ";\n"
    ^ Printf.sprintf
        "SELECT @fid FROM Flight WHERE source='%s' AND destination=@destination \
         LIMIT 1;\nINSERT INTO Reserve (uid, fid) VALUES (%d, @fid);"
        home uid
  in
  wrap world ~label ~transactional:true (block ~timeout:" WITH TIMEOUT 2 DAYS" [ body ])

let spoke_hub world ~set_size ~tag_base =
  if set_size < 2 then invalid_arg "Gen.spoke_hub: set_size must be >= 2";
  let users = Social_graph.users world.Travel.graph in
  let hub = tag_base * 31 mod users in
  let spoke i = (hub + 1 + i) mod users in
  let hub_queries =
    List.init (set_size - 1) (fun i ->
        structured_query world ~me:hub ~tag:(tag_base + i) ~partner:(spoke i))
  in
  let hub_program =
    structured_program world
      ~label:(Printf.sprintf "hub-%d" tag_base)
      ~uid:hub hub_queries
  in
  let spokes =
    List.init (set_size - 1) (fun i ->
        structured_program world
          ~label:(Printf.sprintf "spoke-%d-%d" tag_base i)
          ~uid:(spoke i)
          [ structured_query world ~me:(spoke i) ~tag:(tag_base + i) ~partner:hub ])
  in
  hub_program :: spokes

(* A ring of entanglement dependencies: member i's query requires
   member i+1 (mod s) to choose the same destination, so the whole ring
   is one coordination component that must be answered together.
   A common destination exists as long as the city count exceeds the
   number of distinct member hometowns. *)
let cycle world ~set_size ~tag_base =
  if set_size < 2 then invalid_arg "Gen.cycle: set_size must be >= 2";
  let users = Social_graph.users world.Travel.graph in
  let member i = (tag_base * 37 + i) mod users in
  List.init set_size (fun i ->
      let me = member i in
      let next = member ((i + 1) mod set_size) in
      structured_program world
        ~label:(Printf.sprintf "cycle-%d-%d" tag_base i)
        ~uid:me
        [ structured_query world ~me ~tag:tag_base ~partner:next ])

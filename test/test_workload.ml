(* Tests for the evaluation workloads: the social graph substitute, the
   travel world, the six Appendix D workloads, and the Figure 6(c)
   coordination structures. *)

(* alias the shared test module before [open Ent_workload] shadows [Gen] *)
module Tgen = Gen
open Ent_core
open Ent_workload

let committed m id = Manager.outcome m id = Some Scheduler.Committed

let submit_all world programs =
  List.map (Manager.submit world.Travel.manager) programs

let drain world = Manager.drain world.Travel.manager

(* --- social graph --- *)

let test_graph_generation () =
  let g = Social_graph.generate ~seed:7 ~users:200 ~edges_per_node:3 () in
  Alcotest.(check int) "users" 200 (Social_graph.users g);
  (* reciprocity *)
  for u = 0 to 199 do
    List.iter
      (fun v ->
        if not (List.mem u (Social_graph.friends g v)) then
          Alcotest.failf "edge %d-%d not reciprocated" u v)
      (Social_graph.friends g u)
  done;
  (* heavy tail: max degree well above the average *)
  let degrees = List.init 200 (Social_graph.degree g) in
  let max_deg = List.fold_left max 0 degrees in
  let avg = float_of_int (List.fold_left ( + ) 0 degrees) /. 200.0 in
  Alcotest.(check bool) "hub exists" true (float_of_int max_deg > 2.5 *. avg)

let test_graph_parse_edges () =
  let text = "# comment\n10\t20\n20\t30\n10\t20\n" in
  let g = Social_graph.parse_edges text in
  Alcotest.(check int) "three nodes" 3 (Social_graph.users g);
  Alcotest.(check int) "four directed edges" 4 (Social_graph.edge_count g);
  Alcotest.(check (list int)) "friends of remapped 20" [ 0; 2 ]
    (Social_graph.friends g 1)

let test_load_edges_file () =
  let path = Filename.temp_file "snap" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# Directed graph\n# FromNodeId\tToNodeId\n0\t1\n1\t2\n2\t0\n";
      close_out oc;
      let g = Social_graph.load_edges path in
      Alcotest.(check int) "three users" 3 (Social_graph.users g);
      Alcotest.(check int) "triangle reciprocated" 6 (Social_graph.edge_count g))

let test_nth_friend () =
  let g = Social_graph.generate ~seed:1 ~users:50 ~edges_per_node:2 () in
  let fs = Social_graph.friends g 10 in
  let d = List.length fs in
  if d = 0 then Alcotest.fail "user 10 should have friends";
  for k = 0 to (2 * d) + 1 do
    Alcotest.(check (option int)) (Printf.sprintf "k = %d" k)
      (Some (List.nth fs (k mod d)))
      (Social_graph.nth_friend g 10 k)
  done;
  (* a negative k wraps around too: -1 is the last friend *)
  Alcotest.(check (option int)) "k = -1" (Some (List.nth fs (d - 1)))
    (Social_graph.nth_friend g 10 (-1));
  Alcotest.(check (option int)) "k = -d" (Some (List.hd fs))
    (Social_graph.nth_friend g 10 (-d))

let test_parse_edges_dedupe () =
  let text =
    "# FromNodeId\tToNodeId\n5 7\n7\t5\n5\t7\n  # indented comment\n\n\
     7 7\n9\t5\n5 9\nbad line\n9 7\n"
  in
  let g = Social_graph.parse_edges text in
  (* ids remap in order of first appearance: 5 -> 0, 7 -> 1, 9 -> 2 *)
  Alcotest.(check int) "three nodes" 3 (Social_graph.users g);
  Alcotest.(check int) "triangle, each pair once a direction" 6
    (Social_graph.edge_count g);
  List.iter
    (fun (u, fs) ->
      Alcotest.(check (list int)) (Printf.sprintf "friends of %d" u) fs
        (Social_graph.friends g u))
    [ (0, [ 1; 2 ]); (1, [ 0; 2 ]); (2, [ 0; 1 ]) ]

(* The printed adjacency, one sorted friend list a line. *)
let graph_digest g =
  List.init (Social_graph.users g) (fun u ->
      String.concat " " (List.map string_of_int (Social_graph.friends g u)))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Every world's graph is pinned: a faster generator, or a different
   hash-table seed, must draw exactly these edges. *)
let test_graph_pinned () =
  List.iter
    (fun (seed, users, edges_per_node, expected) ->
      let g = Social_graph.generate ~seed ~users ~edges_per_node () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, %d users, %d edges a node" seed users
           edges_per_node)
        expected (graph_digest g))
    [ (1, 500, 4, "54b2c3cb5ca6b5f3f2f0f772a8b5e37f");
      (2, 500, 4, "b3f45898c18f28df335a2cd28491cd28");
      (3, 2000, 3, "a0ea1082fe1e49fb8a5d8f538661abc5");
      (7, 200, 3, "188f13441b15291f8efa14b7a6cebcd5") ]

(* --- travel world --- *)

let test_world_build () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let m = world.manager in
  Alcotest.(check int) "users loaded" 50
    (List.length (Manager.query m "SELECT uid FROM User"));
  Alcotest.(check int) "flights are a complete digraph" 20
    (List.length (Manager.query m "SELECT fid FROM Flight"));
  Alcotest.(check bool) "hometown never equals destination" true
    (Travel.hometown world 3 <> Travel.destination_for world 3 ~salt:0)

(* --- workloads --- *)

let test_no_social_commits () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let ids = submit_all world (Gen.batch world ~transactional:true No_social ~n:10 ~tag_base:0) in
  drain world;
  Alcotest.(check bool) "all commit" true
    (List.for_all (committed world.manager) ids);
  Alcotest.(check int) "ten reservations" 10 (Travel.reservations world)

let test_social_commits () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let ids = submit_all world (Gen.batch world ~transactional:true Social ~n:10 ~tag_base:0) in
  drain world;
  Alcotest.(check bool) "all commit" true (List.for_all (committed world.manager) ids);
  Alcotest.(check int) "ten reservations" 10 (Travel.reservations world)

let test_entangled_pairs_commit () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let ids =
    submit_all world (Gen.batch world ~transactional:true Entangled ~n:10 ~tag_base:0)
  in
  drain world;
  Alcotest.(check bool) "all commit" true (List.for_all (committed world.manager) ids);
  Alcotest.(check int) "ten reservations" 10 (Travel.reservations world);
  let s = Manager.stats world.manager in
  Alcotest.(check int) "five entangle events" 5 s.entangle_events

let test_entangled_pair_agrees_on_destination () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let programs = Gen.batch world ~transactional:true Entangled ~n:2 ~tag_base:42 in
  let ids = submit_all world programs in
  drain world;
  match List.map (Manager.answers_of world.manager) ids with
  | [ [ (_, [ _; _; d1 ]) ]; [ (_, [ _; _; d2 ]) ] ] ->
    Alcotest.(check string) "same destination"
      (Ent_storage.Value.to_string d1) (Ent_storage.Value.to_string d2)
  | _ -> Alcotest.fail "unexpected answer shapes"

let test_q_variants_commit () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let ids =
    submit_all world (Gen.batch world ~transactional:false Entangled ~n:6 ~tag_base:0)
    @ submit_all world (Gen.batch world ~transactional:false No_social ~n:4 ~tag_base:50)
  in
  drain world;
  Alcotest.(check bool) "all commit" true (List.for_all (committed world.manager) ids);
  Alcotest.(check int) "ten reservations" 10 (Travel.reservations world)

let test_q_cheaper_than_t () =
  (* the -Q variant of the same workload must finish earlier in
     simulated time (no transaction overhead) *)
  let run transactional =
    let config =
      { Scheduler.default_config with connections = 10; trigger = Scheduler.Every_arrivals 10 }
    in
    let world = Travel.build ~users:100 ~cities:5 ~config () in
    ignore (submit_all world (Gen.batch world ~transactional No_social ~n:100 ~tag_base:0));
    drain world;
    Manager.now world.manager
  in
  let t_time = run true and q_time = run false in
  Alcotest.(check bool)
    (Printf.sprintf "Q (%f) < T (%f)" q_time t_time)
    true (q_time < t_time)

let test_lonely_stay_pending () =
  let world = Travel.build ~users:50 ~cities:5 () in
  let ids = submit_all world (Gen.lonely world ~n:3 ~tag_base:0) in
  drain world;
  Alcotest.(check bool) "none committed" true
    (List.for_all (fun id -> not (committed world.manager id)) ids);
  Alcotest.(check int) "all dormant" 3
    (List.length (Scheduler.dormant (Manager.scheduler world.manager)))

let test_spoke_hub_commits () =
  List.iter
    (fun set_size ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Manual }
      in
      let world = Travel.build ~users:60 ~cities:6 ~config () in
      let ids = submit_all world (Gen.spoke_hub world ~set_size ~tag_base:1) in
      Manager.run_once world.manager;
      Manager.drain world.manager;
      Alcotest.(check bool)
        (Printf.sprintf "spoke-hub size %d commits" set_size)
        true
        (List.for_all (committed world.manager) ids))
    [ 2; 3; 5; 8 ]

let test_cycle_commits () =
  List.iter
    (fun set_size ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Manual }
      in
      let world = Travel.build ~users:60 ~cities:12 ~config () in
      let ids = submit_all world (Gen.cycle world ~set_size ~tag_base:1) in
      Manager.run_once world.manager;
      Manager.drain world.manager;
      Alcotest.(check bool)
        (Printf.sprintf "cycle size %d commits" set_size)
        true
        (List.for_all (committed world.manager) ids))
    [ 2; 3; 4; 6; 9 ]

let test_q_retry_resumes_not_restarts () =
  (* A -Q transaction's committed statements survive a repool: when its
     partner arrives a run later, the pre-query INSERT must not run a
     second time. *)
  let world = Travel.build ~users:50 ~cities:5 () in
  let m = world.manager in
  Manager.define_table m "Markers" [ ("who", Ent_storage.Schema.T_str) ];
  let q_program me _partner =
    Program.of_string ~transactional:false
      (Printf.sprintf
         "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;\n\
          INSERT INTO Markers VALUES ('%s');\n\
          SELECT %d, 9, dst AS @destination INTO ANSWER Meet\n\
          WHERE (dst) IN (SELECT destination FROM Flight WHERE source='%s')\n\
          AND (%d, 9, dst) IN ANSWER Meet\n\
          CHOOSE 1;\n\
          INSERT INTO Reserve (uid, fid) VALUES (%d, 0);\n\
          COMMIT;"
         me
         (if me = "early" then 1 else 2)
         (Travel.hometown world 1)
         (if me = "early" then 2 else 1)
         (if me = "early" then 1 else 2))
  in
  let early = Manager.submit m (q_program "early" "late") in
  Manager.drain m;  (* early waits: its marker is already committed *)
  Alcotest.(check int) "marker committed while waiting" 1
    (List.length (Manager.query m "SELECT who FROM Markers"));
  let late = Manager.submit m (q_program "late" "early") in
  Manager.drain m;
  Alcotest.(check bool) "both done" true
    (Manager.outcome m early = Some Scheduler.Committed
    && Manager.outcome m late = Some Scheduler.Committed);
  Alcotest.(check int) "exactly two markers (no re-execution)" 2
    (List.length (Manager.query m "SELECT who FROM Markers"));
  Alcotest.(check int) "two bookings" 2 (Travel.reservations world)

(* --- properties --- *)

let prop_entangled_batches_always_commit =
  QCheck2.Test.make ~name:"entangled batches fully commit" ~count:20
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 20))
    (fun (pairs, f) ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Every_arrivals f }
      in
      let world = Travel.build ~users:80 ~cities:5 ~config () in
      let ids =
        submit_all world
          (Gen.batch world ~transactional:true Entangled ~n:(2 * pairs) ~tag_base:0)
      in
      drain world;
      List.for_all (committed world.manager) ids)

let prop_graph_reciprocal =
  QCheck2.Test.make ~name:"generated graphs are reciprocal" ~count:30
    QCheck2.Gen.(pair (int_range 2 120) (int_range 1 6))
    (fun (users, epn) ->
      let g = Social_graph.generate ~seed:3 ~users ~edges_per_node:epn () in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> List.mem u (Social_graph.friends g v))
            (Social_graph.friends g u))
        (List.init users Fun.id))

(* --- statement shapes --- *)

(* Every generator parses through its world's shape table; the same
   world without a table parses each text in full. Two worlds give
   literals of different lengths. *)
let test_shapes_match_full_parse () =
  let generate world =
    let batch kind transactional n =
      Gen.batch world ~transactional kind ~n ~tag_base:7
    in
    [ batch Gen.No_social true 40;
      batch Gen.Social true 40;
      batch Gen.Entangled true 40;
      batch Gen.No_social false 12;
      batch Gen.Entangled false 12;
      Gen.lonely world ~n:12 ~tag_base:1_000_000;
      Gen.spoke_hub world ~set_size:2 ~tag_base:3;
      Gen.spoke_hub world ~set_size:5 ~tag_base:11;
      Gen.cycle world ~set_size:4 ~tag_base:5;
      Gen.cycle world ~set_size:6 ~tag_base:123 ]
    |> List.concat
  in
  List.iter
    (fun world ->
      let shared = generate world in
      let full = generate { world with Travel.shapes = None } in
      List.iter2
        (fun (a : Program.t) (b : Program.t) ->
          if a.label <> b.label || a.ast <> b.ast then
            Alcotest.failf "%s differs from the full parse of its text" a.label)
        shared full)
    [ Travel.build ~seed:2 ~users:40 ~cities:4 ();
      Travel.build ~seed:9 ~users:3000 ~cities:11 () ]

(* Programs of one shape share every subtree without a literal in it. *)
let test_shapes_retained_words () =
  let world = Travel.build () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let n = 10_000 in
  let before = live_words () in
  let programs = Gen.batch world ~transactional:true Gen.No_social ~n ~tag_base:0 in
  let per_program = float_of_int (live_words () - before) /. float_of_int n in
  ignore (Sys.opaque_identity programs);
  if per_program > 100.0 then
    Alcotest.failf "%.1f live words retained per generated program" per_program

(* The texts [Gen] builds, as [Printf] formats spelled them: label,
   body and transaction block. *)
let printf_text world (kind : Gen.kind) ~uid ~partner ~tag =
  let dest = Travel.destination_for world uid ~salt:tag in
  let body, timeout =
    match kind with
    | No_social ->
      ( Printf.sprintf
          "SELECT @uid, @hometown FROM User WHERE uid=%d;\n\
           SELECT @fid FROM Flight WHERE source=@hometown AND destination='%s' LIMIT 1;\n\
           INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);"
          uid dest,
        "" )
    | Social ->
      ( Printf.sprintf
          "SELECT @uid, @hometown FROM User WHERE uid=%d;\n\
           SELECT uid2 FROM Friends, User AS u1, User AS u2\n\
           WHERE Friends.uid1=@uid AND Friends.uid2=u2.uid AND u1.uid=@uid\n\
           AND u1.hometown=u2.hometown LIMIT 1;\n\
           SELECT @fid FROM Flight WHERE source=@hometown AND destination='%s' LIMIT 1;\n\
           INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);"
          uid dest,
        "" )
    | Entangled ->
      let friendship_check =
        if partner >= 0 then
          Printf.sprintf
            "AND (%d) IN (SELECT uid2 FROM Friends WHERE uid1=%d AND uid2=%d)\n"
            partner uid partner
        else ""
      in
      ( Printf.sprintf
          "SELECT @uid, @hometown FROM User WHERE uid=%d;\n\
           SELECT %d, %d, dst AS @destination INTO ANSWER Meet\n\
           WHERE (dst) IN (SELECT destination FROM Flight WHERE source=@hometown)\n\
           %sAND (%d, %d, dst) IN ANSWER Meet\n\
           CHOOSE 1;\n\
           SELECT @fid FROM Flight WHERE source=@hometown AND destination=@destination LIMIT 1;\n\
           INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid);"
          uid uid tag friendship_check partner tag,
        " WITH TIMEOUT 2 DAYS" )
  in
  ( Printf.sprintf "%s-%d-%d"
      (match kind with No_social -> "nosocial" | Social -> "social" | Entangled -> "entangled")
      uid tag,
    Printf.sprintf "BEGIN TRANSACTION%s;\n%s\nCOMMIT;" timeout body )

let test_texts_match_printf () =
  List.iter
    (fun seed ->
      let world = Travel.build ~seed () in
      List.iter
        (fun kind ->
          for i = 0 to 199 do
            let uid = i * 13 mod 500 and tag = (i * 7919) - 300 in
            let partner = if i mod 5 = 0 then -1 else (uid + i) mod 500 in
            let expected = printf_text world kind ~uid ~partner ~tag in
            let got = Gen.text world kind ~uid ~partner ~tag in
            if got <> expected then
              Alcotest.failf "%s text differs from the Printf one:\n%s\n%s"
                (fst expected) (snd got) (snd expected)
          done)
        [ Gen.No_social; Gen.Social; Gen.Entangled ])
    [ 1; 2 ]

let () =
  Alcotest.run "workload"
    [ ( "graph",
        [ Alcotest.test_case "generation" `Quick test_graph_generation;
          Alcotest.test_case "parse edges" `Quick test_graph_parse_edges;
          Alcotest.test_case "load edges file" `Quick test_load_edges_file;
          Alcotest.test_case "nth friend" `Quick test_nth_friend;
          Alcotest.test_case "parse edges dedupe" `Quick test_parse_edges_dedupe;
          Alcotest.test_case "pinned digests" `Quick test_graph_pinned ] );
      ( "world",
        [ Alcotest.test_case "build" `Quick test_world_build ] );
      ( "workloads",
        [ Alcotest.test_case "no-social" `Quick test_no_social_commits;
          Alcotest.test_case "social" `Quick test_social_commits;
          Alcotest.test_case "entangled pairs" `Quick test_entangled_pairs_commit;
          Alcotest.test_case "destination agreement" `Quick
            test_entangled_pair_agrees_on_destination;
          Alcotest.test_case "q variants" `Quick test_q_variants_commit;
          Alcotest.test_case "q cheaper than t" `Quick test_q_cheaper_than_t;
          Alcotest.test_case "q retry resumes" `Quick test_q_retry_resumes_not_restarts;
          Alcotest.test_case "lonely pending" `Quick test_lonely_stay_pending;
          Alcotest.test_case "spoke-hub" `Quick test_spoke_hub_commits;
          Alcotest.test_case "cycle" `Quick test_cycle_commits ] );
      ( "properties",
        List.map Tgen.to_alcotest
          [ prop_entangled_batches_always_commit; prop_graph_reciprocal ] );
      ( "shapes",
        [ Alcotest.test_case "generated programs equal the full parse" `Quick
            test_shapes_match_full_parse;
          Alcotest.test_case "retained words per program" `Quick test_shapes_retained_words;
          Alcotest.test_case "texts equal the Printf-built ones" `Quick
            test_texts_match_printf ] ) ]

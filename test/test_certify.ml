(* Tests for the online schedule certifier (entcheck's dynamic side):
   unit histories pinning each violation code, agreement with a naive
   transcription of Appendix C (test/reference.ml) over generated
   schedules, the engine-event feed, certification of real
   scheduler runs, and a mutation suite — anomalies seeded into clean
   schedules must be rejected (the acceptance bar is >= 95%;
   these operators are constructed so the property demands 100%). *)

open Ent_schedule
open History
module Manager = Ent_core.Manager
module Engine = Ent_txn.Engine

let x = Named "x"
let y = Named "y"
let z = Named "z"
let w = Named "w"

let codes h =
  Certify.violations (Certify.replay h)
  |> List.map (fun (v : Certify.violation) -> v.code)
  |> List.sort_uniq String.compare

let check_codes name expected h =
  Alcotest.(check (list string)) name expected (codes h)

(* The example schedule of §C.1 (clean). *)
let example_c1 =
  [ Ground_read (1, x);
    Ground_read (2, y);
    Read (3, z);
    Entangle (1, [ 1; 2 ]);
    Write (1, z);
    Write (2, w);
    Commit 1;
    Commit 2;
    Commit 3 ]

let figure_3a =
  [ Ground_read (1, x);
    Ground_read (2, x);
    Entangle (1, [ 1; 2 ]);
    Write (1, y);
    Write (2, z);
    Abort 2;
    Commit 1 ]

let airlines = Named "Airlines"
let flights = Named "Flights"

let figure_3b =
  [ Ground_read (1, flights);
    Ground_read (2, flights);
    Ground_read (2, airlines);
    Entangle (1, [ 1; 2 ]);
    Write (3, airlines);
    Commit 3;
    Read (1, airlines);
    Write (1, w);
    Commit 1;
    Commit 2 ]

(* --- one unit history per violation code --- *)

let test_clean () =
  check_codes "example C.1 certifies" [] example_c1;
  check_codes "empty schedule" [] [];
  check_codes "serial" []
    [ Read (1, x); Write (1, y); Commit 1; Read (2, y); Commit 2 ]

let test_conflict_cycle () =
  (* unrepeatable classical read: R1(x) W2(x) C2 R1(x) C1 *)
  check_codes "cycle" [ "conflict-cycle" ]
    [ Read (1, x); Write (2, x); Commit 2; Read (1, x); Commit 1 ]

let test_read_from_aborted () =
  check_codes "dirty read" [ "read-from-aborted" ]
    [ Write (1, x); Read (2, x); Abort 1; Commit 2 ];
  (* C.3 only protects committed readers *)
  check_codes "aborted reader exempt" []
    [ Write (1, x); Read (2, x); Abort 1; Abort 2 ]

(* A read after the writer's abort sees the value the abort restored:
   it reads from nobody aborted. Rows and table scans alike. *)
let test_read_after_abort () =
  check_codes "W2(x) A2 R1(x) C1" [] [ Write (2, x); Abort 2; Read (1, x); Commit 1 ];
  check_codes "row write, table scan after the abort" []
    [ Write (2, Row ("T", 0)); Abort 2; Read (1, Table "T"); Commit 1 ];
  check_codes "table write, row read after the abort" []
    [ Write (2, Table "T"); Abort 2; Read (1, Row ("T", 3)); Commit 1 ];
  check_codes "W2(x) R1(x) A2 C1" [ "read-from-aborted" ]
    [ Write (2, x); Read (1, x); Abort 2; Commit 1 ];
  check_codes "row write, table scan before the abort" [ "read-from-aborted" ]
    [ Write (2, Row ("T", 0)); Read (1, Table "T"); Abort 2; Commit 1 ]

(* A quasi-read lands at its grounding read's position, so it can fall
   before an abort that the schedule shows first: T2's quasi-read of y
   sits at T4's grounding read, between T1's write and abort. *)
let test_quasi_read_before_abort () =
  check_codes "retroactive quasi-read of an aborted write"
    [ "read-from-aborted" ]
    [ Write (1, y);
      Ground_read (4, y);
      Abort 1;
      Entangle (1, [ 2; 4 ]);
      Commit 2;
      Commit 4 ]

let test_widowed () =
  check_codes "figure 3a" [ "widowed" ] figure_3a

let test_unrepeatable_quasi_read () =
  check_codes "figure 3b" [ "conflict-cycle"; "unrepeatable-quasi-read" ]
    figure_3b

(* Figure 3b with Donald's write moved before the entanglement: the
   foreign write lands between Minnie's grounding read and the moment
   Mickey's quasi-read of it materializes. *)
let figure_3b_early_write ending =
  [ Ground_read (1, flights);
    Ground_read (2, flights);
    Ground_read (2, airlines);
    Write (3, airlines);
    Commit 3;
    Entangle (1, [ 1; 2 ]);
    Read (1, airlines);
    Write (1, w) ]
  @ ending

let test_write_before_entangle_abort () =
  check_codes "both abort" [ "unrepeatable-quasi-read" ]
    (figure_3b_early_write [ Abort 1; Abort 2 ])

let test_write_before_entangle_commit () =
  check_codes "both commit" [ "conflict-cycle"; "unrepeatable-quasi-read" ]
    (figure_3b_early_write [ Commit 1; Commit 2 ])

let test_validity_codes () =
  check_codes "unanswered ground" [ "unanswered-ground" ]
    [ Ground_read (1, x); Commit 1 ];
  check_codes "ground gap" [ "ground-gap" ]
    [ Ground_read (1, x); Write (1, y); Ground_read (2, z);
      Entangle (1, [ 1; 2 ]); Commit 1; Commit 2 ];
  check_codes "post-terminal" [ "post-terminal" ]
    [ Read (1, x); Commit 1; Write (1, y) ];
  check_codes "double terminal" [ "double-terminal" ]
    [ Read (1, x); Commit 1; Commit 1 ]

let test_stats () =
  let c = Certify.create () in
  List.iter (Certify.on_op c) example_c1;
  let s = Certify.stats c in
  Alcotest.(check bool) "ok" true (Certify.ok c);
  (* 5 data ops + the 2 quasi-reads injected by the entangle *)
  Alcotest.(check int) "ops" 7 s.ops;
  Alcotest.(check int) "txns" 3 s.txns;
  Alcotest.(check int) "committed" 3 s.committed;
  Alcotest.(check int) "aborted" 0 s.aborted;
  (* R3(z) before W1(z), both committed *)
  Alcotest.(check int) "edges" 1 s.edges;
  Alcotest.(check int) "quasi-reads" 2 s.quasi_reads

let test_violation_cap () =
  (* 300 distinct dirty-read pairs: the retained list is capped *)
  let c = Certify.create () in
  for i = 0 to 299 do
    let o = Named (Printf.sprintf "v%d" i) in
    List.iter (Certify.on_op c)
      [ Write ((4 * i) + 1, o); Read ((4 * i) + 2, o);
        Abort ((4 * i) + 1); Commit ((4 * i) + 2) ]
  done;
  Alcotest.(check int) "capped" Certify.max_violations
    (List.length (Certify.violations c));
  Alcotest.(check bool) "not ok" false (Certify.ok c)

(* --- agreement with the Appendix C reference --- *)

let prop_matches_reference =
  QCheck2.Test.make ~name:"certifier codes equal the Appendix C reference"
    ~count:2000 ~print:Gen.print_seeded_schedule Gen.seeded_schedule_gen
    (fun seed ->
      let h = Gen.schedule_of_seed seed in
      codes h = Reference.codes h)

(* --- the engine feed --- *)

(* The one engine-event mapping, per constructor; the recorder records
   exactly the mapped operations. *)
let test_engine_event_mapping () =
  let table =
    [ (Engine.Ev_read (1, Engine.T_table "T"), Some (Read (1, Table "T")));
      (Engine.Ev_read (1, Engine.T_row ("T", 4)), Some (Read (1, Row ("T", 4))));
      (Engine.Ev_grounding_read (2, "F"), Some (Ground_read (2, Table "F")));
      (Engine.Ev_write (1, "T", 4), Some (Write (1, Row ("T", 4))));
      (Engine.Ev_begin (3, Engine.Snapshot), None);
      (Engine.Ev_commit 1, Some (Commit 1));
      (Engine.Ev_abort 2, Some (Abort 2)) ]
  in
  List.iter
    (fun (ev, expected) ->
      if History.of_engine_event ev <> expected then
        Alcotest.failf "wrong mapping for %s"
          (match expected with
          | Some op -> Format.asprintf "%a" pp_op op
          | None -> "Ev_begin"))
    table;
  let r = Recorder.create () in
  List.iter (fun (ev, _) -> Recorder.on_engine_event r ev) table;
  Alcotest.(check bool) "recorder keeps the mapped ops" true
    (Recorder.history r = List.filter_map snd table)

(* The certifier fed straight from the engine catches a dirty read. *)
let test_engine_feed_dirty_read () =
  let c = Certify.create () in
  List.iter (Certify.on_engine_event c)
    [ Engine.Ev_write (1, "T", 0);
      Engine.Ev_read (2, Engine.T_row ("T", 0));
      Engine.Ev_abort 1;
      Engine.Ev_commit 2 ];
  Alcotest.(check (list string)) "dirty read"
    [ "read-from-aborted" ]
    (Certify.violations c
    |> List.map (fun (v : Certify.violation) -> v.code)
    |> List.sort_uniq String.compare)

(* --- certifying real scheduler runs --- *)

let observe m =
  let c = Certify.create () in
  Manager.observe m
    ~on_event:(Certify.on_engine_event c)
    ~on_entangle:(fun ~event participants ->
      Certify.on_entangle c ~event participants);
  c

let test_real_run_certifies () =
  let m = Gen.travel_manager () in
  let c = observe m in
  List.iter
    (fun (a, b) ->
      ignore (Manager.submit_string m (Gen.flight_program a b)))
    [ ("Mickey", "Minnie"); ("Minnie", "Mickey");
      ("Donald", "Daffy"); ("Daffy", "Donald") ];
  Manager.drain m;
  Alcotest.(check bool) "ok" true (Certify.ok c);
  let s = Certify.stats c in
  Alcotest.(check bool) "committed some" true (s.committed >= 4);
  Alcotest.(check bool) "saw quasi-reads" true (s.quasi_reads > 0)

let prop_real_runs_certify_clean =
  QCheck2.Test.make ~name:"real scheduler runs certify clean" ~count:15
    Gen.entangled_batch_gen (fun (programs, _lonely) ->
      let m = Gen.travel_manager () in
      let c = observe m in
      List.iter (fun p -> ignore (Manager.submit m p)) programs;
      Manager.drain m;
      Certify.ok c)

(* --- the mutation suite --- *)

(* A clean schedule with known structure: entangled pairs (grounding
   overlap only, group-committed), then plain serial transactions each
   writing its own object, optionally reading an earlier plain
   transaction's object (real conflict edges, never a cycle). *)
type clean = {
  sched : op list;
  pairs : (int * int) list;
  plains : int list;
}

let obj_of t = Named (Printf.sprintf "o%d" t)
let ground_of t = Named (Printf.sprintf "g%d" t)

let build_clean n_pairs n_plains cross =
  let next = ref 0 in
  let fresh () = incr next; !next in
  let pairs = List.init n_pairs (fun _ -> let a = fresh () in (a, fresh ())) in
  let plains = List.init n_plains (fun _ -> fresh ()) in
  let pair_seg i (a, b) =
    [ Ground_read (a, ground_of a);
      Ground_read (b, ground_of b);
      Entangle (i + 1, [ a; b ]);
      Write (a, obj_of a);
      Commit a;
      Write (b, obj_of b);
      Commit b ]
  in
  let plain_seg i t =
    let earlier = List.filteri (fun j _ -> j < i) plains in
    let choice = List.nth cross i in
    let reads =
      if earlier = [] || choice = 0 then []
      else [ Read (t, obj_of (List.nth earlier ((choice - 1) mod List.length earlier))) ]
    in
    reads @ [ Write (t, obj_of t); Commit t ]
  in
  let sched =
    List.concat (List.mapi pair_seg pairs)
    @ List.concat (List.mapi plain_seg plains)
  in
  { sched; pairs; plains }

let clean_gen =
  let open QCheck2.Gen in
  let* n_pairs = int_range 1 2 in
  let* n_plains = int_range 2 4 in
  let* cross = list_size (return n_plains) (int_range 0 9) in
  return (build_clean n_pairs n_plains cross)

let rec insert_before p op = function
  | [] -> [ op ]
  | o :: rest when p o -> op :: o :: rest
  | o :: rest -> o :: insert_before p op rest

(* Each operator seeds one specific anomaly; [mutate] returns the
   schedule plus the codes that prove the seed was caught. *)
let mutate c kind =
  let a, b = List.hd c.pairs in
  let t = List.hd c.plains in
  let u = List.nth c.plains (List.length c.plains - 1) in
  match kind with
  | 0 ->
    (* widow_flip: break the group commit *)
    ( List.map (function Commit n when n = b -> Abort b | o -> o) c.sched,
      [ "widowed" ] )
  | 1 ->
    (* dirty_read: u reads t's write, then t aborts retroactively *)
    ( List.map (function Commit n when n = t -> Abort t | o -> o) c.sched
      |> insert_before (fun o -> o = Abort t) (Read (u, obj_of t)),
      [ "read-from-aborted" ] )
  | 2 ->
    (* cycle: u writes t's object before t does and reads it after *)
    ( Write (u, obj_of t)
      :: insert_before (fun o -> o = Commit u) (Read (u, obj_of t)) c.sched,
      [ "conflict-cycle" ] )
  | 3 ->
    (* drop_entangle: a's grounding read is never answered *)
    ( List.filter
        (function Entangle (_, ps) -> not (List.mem a ps) | _ -> true)
        c.sched,
      [ "ground-gap"; "unanswered-ground" ] )
  | 4 ->
    (* commit_swap: t's terminal migrates before its write *)
    ( List.filter (fun o -> o <> Commit t) c.sched
      |> insert_before (fun o -> o = Write (t, obj_of t)) (Commit t),
      [ "post-terminal" ] )
  | _ ->
    (* double terminal *)
    ( List.concat_map
        (function Commit n when n = t -> [ Commit t; Commit t ] | o -> [ o ])
        c.sched,
      [ "double-terminal" ] )

(* --- the SI mutation suite --- *)

(* Replay with per-transaction levels and return (violation codes,
   SI-permitted anomaly codes). *)
let si_codes ~levels h =
  let c = Certify.replay ~levels h in
  let names vs =
    List.map (fun (v : Certify.violation) -> v.code) vs
    |> List.sort_uniq String.compare
  in
  (names (Certify.violations c), names (Certify.anomalies c))

let si = Engine.Snapshot

(* One minimal history per SI code. *)
let test_si_codes () =
  (* classic write-skew: disjoint writes, crossed reads, both SI —
     allowed by SI, so named as an anomaly without failing *)
  let vs, anoms =
    si_codes ~levels:[ (1, si); (2, si) ]
      [ Read (1, y); Read (2, x); Write (1, x); Write (2, y);
        Commit 1; Commit 2 ]
  in
  Alcotest.(check (list string)) "write-skew does not fail certification" [] vs;
  Alcotest.(check (list string)) "write-skew is named" [ "si-write-skew" ] anoms;
  (* the same schedule under 2PL levels is a plain conflict cycle *)
  let vs, anoms =
    si_codes ~levels:[]
      [ Read (1, y); Read (2, x); Write (1, x); Write (2, y);
        Commit 1; Commit 2 ]
  in
  Alcotest.(check (list string)) "under 2PL it fails" [ "conflict-cycle" ] vs;
  Alcotest.(check (list string)) "and is no SI anomaly" [] anoms;
  (* lost update: txn 1 commits a write to x after SI txn 2's snapshot;
     2's committed write to x must have been killed by FCW *)
  let vs, _ =
    si_codes ~levels:[ (2, si) ]
      [ Read (2, x); Write (1, x); Commit 1; Write (2, x); Commit 2 ]
  in
  Alcotest.(check bool) "lost update caught" true
    (List.mem "si-lost-update" vs);
  (* SI rename of the dirty read: version visibility should have hidden
     the aborted write from the snapshot reader *)
  let vs, _ =
    si_codes ~levels:[ (2, si) ]
      [ Write (1, x); Read (2, x); Abort 1; Commit 2 ]
  in
  Alcotest.(check (list string)) "read of uncommitted renamed"
    [ "si-read-uncommitted" ] vs

(* Mirror of [mutate] for snapshot transactions: each operator demotes
   plain transactions of a clean schedule to SI and seeds one anomaly;
   returns the schedule, the level declarations, the codes that must
   appear among the violations, and the codes that must appear among
   the SI-permitted anomalies. *)
let mutate_si c kind =
  let t = List.hd c.plains in
  let u = List.nth c.plains (List.length c.plains - 1) in
  match kind with
  | 0 ->
    (* write_skew: t and u read each other's object before either
       writes — a pure rw cycle between SI members, which SI allows:
       named, not failing *)
    ( c.sched
      |> insert_before (fun o -> o = Write (t, obj_of t)) (Read (u, obj_of t))
      |> insert_before (fun o -> o = Read (u, obj_of t)) (Read (t, obj_of u)),
      [ (t, si); (u, si) ],
      [],
      [ "si-write-skew" ] )
  | 1 ->
    (* lost_update: u snapshots before t's write of o_t, then commits
       its own write to o_t — first-committer-wins must have aborted u *)
    ( c.sched
      |> insert_before (fun o -> o = Write (t, obj_of t)) (Read (u, obj_of t))
      |> insert_before (fun o -> o = Commit u) (Write (u, obj_of t)),
      [ (u, si) ],
      [ "si-lost-update" ],
      [] )
  | _ ->
    (* read_uncommitted: t aborts retroactively after SI txn u read its
       write — the snapshot should never have contained it *)
    ( List.map (function Commit n when n = t -> Abort t | o -> o) c.sched
      |> insert_before (fun o -> o = Abort t) (Read (u, obj_of t)),
      [ (u, si) ],
      [ "si-read-uncommitted" ],
      [] )

let prop_si_mutations_rejected =
  QCheck2.Test.make ~name:"seeded SI anomalies are caught and named" ~count:120
    QCheck2.Gen.(pair clean_gen (int_range 0 2))
    (fun (c, kind) ->
      let mutated, levels, expect_viol, expect_anom = mutate_si c kind in
      let vs, anoms = si_codes ~levels mutated in
      List.for_all (fun e -> List.mem e vs) expect_viol
      && List.for_all (fun e -> List.mem e anoms) expect_anom
      (* write-skew alone must not fail certification *)
      && (kind <> 0 || vs = []))

let prop_si_demotion_safe =
  (* a clean schedule stays clean when every plain transaction is
     demoted to SI: no false positives from the snapshot repositioning *)
  QCheck2.Test.make ~name:"clean schedules certify under all-SI demotion"
    ~count:100 clean_gen (fun c ->
      let levels = List.map (fun t -> (t, si)) (c.plains @ List.concat_map (fun (a, b) -> [ a; b ]) c.pairs) in
      let vs, _ = si_codes ~levels c.sched in
      vs = [])

let prop_clean_certifies =
  QCheck2.Test.make ~name:"generated clean schedules certify" ~count:100
    clean_gen (fun c -> codes c.sched = [])

let prop_mutations_rejected =
  QCheck2.Test.make ~name:"seeded anomalies are rejected" ~count:240
    QCheck2.Gen.(pair clean_gen (int_range 0 5))
    (fun (c, kind) ->
      let mutated, expected = mutate c kind in
      let cs = codes mutated in
      (* the certifier names the seeded anomaly ... *)
      List.exists (fun e -> List.mem e cs) expected
      (* ... and the reference concurs that something is wrong *)
      && (validity_errors mutated <> [] || Reference.codes mutated <> []))

let () =
  Alcotest.run "certify"
    [ ( "unit",
        [ Alcotest.test_case "clean schedules" `Quick test_clean;
          Alcotest.test_case "conflict cycle" `Quick test_conflict_cycle;
          Alcotest.test_case "read from aborted" `Quick test_read_from_aborted;
          Alcotest.test_case "read after abort" `Quick test_read_after_abort;
          Alcotest.test_case "quasi-read before abort" `Quick
            test_quasi_read_before_abort;
          Alcotest.test_case "widowed" `Quick test_widowed;
          Alcotest.test_case "unrepeatable quasi-read" `Quick
            test_unrepeatable_quasi_read;
          Alcotest.test_case "write before entangle, aborts" `Quick
            test_write_before_entangle_abort;
          Alcotest.test_case "write before entangle, commits" `Quick
            test_write_before_entangle_commit;
          Alcotest.test_case "validity codes" `Quick test_validity_codes;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "violation cap" `Quick test_violation_cap;
          Alcotest.test_case "engine event mapping" `Quick
            test_engine_event_mapping;
          Alcotest.test_case "dirty read from engine events" `Quick
            test_engine_feed_dirty_read ] );
      ("reference", List.map Gen.to_alcotest [ prop_matches_reference ]);
      ( "real runs",
        Alcotest.test_case "deterministic run" `Quick test_real_run_certifies
        :: List.map Gen.to_alcotest [ prop_real_runs_certify_clean ] );
      ( "mutations",
        List.map Gen.to_alcotest
          [ prop_clean_certifies; prop_mutations_rejected ] );
      ( "si mutations",
        Alcotest.test_case "si violation codes" `Quick test_si_codes
        :: List.map Gen.to_alcotest
             [ prop_si_mutations_rejected; prop_si_demotion_safe ] ) ]

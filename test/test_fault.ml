(* Tests for the fault layer (lib/fault) and the entsim harness: the
   splittable PRNG, fault-plan parsing, the injection-point registry,
   an exhaustive crash-point sweep over a real workload's WAL (every
   record boundary, plus every byte of the on-disk encoding for the
   torn-write case), WAL round-trip and recovery-idempotence
   properties, and the harness invariants themselves — including the
   widow detector catching a run without group commit. *)

module Tgen = Gen
open Ent_core
module Rng = Ent_fault.Rng
module Plan = Ent_fault.Plan
module Fault = Ent_fault.Injector
module Wal = Ent_txn.Wal
module Recovery = Ent_txn.Recovery
module Harness = Ent_entsim.Harness

(* --- splittable PRNG --- *)

let test_rng_deterministic () =
  let stream seed =
    let r = Rng.make seed in
    List.init 20 (fun _ -> Rng.bits r)
  in
  Alcotest.(check bool) "same seed, same stream" true (stream 42 = stream 42);
  Alcotest.(check bool) "different seeds differ" true (stream 42 <> stream 43)

let test_rng_bounds () =
  let r = Rng.make 7 in
  for bound = 1 to 20 do
    for _ = 1 to 100 do
      let n = Rng.int r bound in
      if n < 0 || n >= bound then
        Alcotest.failf "Rng.int %d produced %d" bound n
    done
  done

let test_rng_split_independent () =
  let r = Rng.make 9 in
  let a = Rng.split r in
  let b = Rng.split r in
  let stream rng = List.init 10 (fun _ -> Rng.bits rng) in
  Alcotest.(check bool) "split streams differ" true (stream a <> stream b)

let test_rng_pick_and_weighted () =
  let r = Rng.make 11 in
  for _ = 1 to 100 do
    let x = Rng.pick r [ 1; 2; 3 ] in
    if not (List.mem x [ 1; 2; 3 ]) then Alcotest.failf "pick produced %d" x;
    (* a zero-weight choice must never be drawn *)
    match Rng.weighted r [ (1, `A); (0, `B) ] with
    | `A -> ()
    | `B -> Alcotest.fail "weighted drew a zero-weight choice"
  done

(* --- fault plans --- *)

let prop_plan_roundtrip =
  QCheck2.Test.make ~name:"plan to_string/of_string round-trip" ~count:200
    Tgen.plan_gen
    (fun plan -> Plan.of_string (Plan.to_string plan) = Ok plan)

let test_plan_parse_errors () =
  let bad s =
    match Plan.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "garbage";
  bad "site@x=crash";
  bad "site@0=crash";
  bad "site@1=explode";
  bad "@1=crash";
  (match Plan.of_string "(none)" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "\"(none)\" should parse as the empty plan")

(* --- injection-point registry --- *)

let test_injector_arm_fires_once () =
  Fault.deactivate ();
  let site = Fault.site "test.fault.a" in
  Fault.install [ { Plan.site = "test.fault.a"; hit = 3; action = Plan.Crash } ];
  Fun.protect ~finally:Fault.deactivate (fun () ->
      Fault.hit site;
      Fault.hit site;
      (try
         Fault.hit site;
         Alcotest.fail "third hit should crash"
       with Fault.Crashed _ -> ());
      (* the arm is consumed: later hits pass *)
      Fault.hit site;
      Fault.hit site)

let test_injector_profiling_counts () =
  Fault.deactivate ();
  let site = Fault.site "test.fault.b" in
  Fault.install [];
  Fun.protect ~finally:Fault.deactivate (fun () ->
      Fault.hit site;
      Fault.hit site;
      Alcotest.(check int) "two hits recorded" 2
        (List.assoc "test.fault.b" (Fault.counts ())))

let test_injector_drop_and_inactive () =
  Fault.deactivate ();
  let site = Fault.site "test.fault.c" in
  (* inactive registry: sites are free and report nothing *)
  Alcotest.(check bool) "inactive never drops" false (Fault.drops site);
  Fault.install [ { Plan.site = "test.fault.c"; hit = 1; action = Plan.Drop } ];
  Fun.protect ~finally:Fault.deactivate (fun () ->
      Alcotest.(check bool) "armed hit drops" true (Fault.drops site);
      Alcotest.(check bool) "arm consumed" false (Fault.drops site))

(* Hits from several domains at once: every hit is counted and every
   arm fires exactly once, however the domains interleave. *)
let test_injector_domains () =
  Fault.deactivate ();
  let name = "test.fault.domains" in
  let site = Fault.site name in
  let arms = [ (17, Plan.Drop); (5_000, Plan.Fail); (10_000, Plan.Crash) ] in
  Fault.install
    (List.map (fun (hit, action) -> { Plan.site = name; hit; action }) arms);
  let pool = Ent_par.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () ->
      Ent_par.Pool.shutdown pool;
      Fault.deactivate ())
    (fun () ->
      let items = 100 in
      let fired = Array.make items [] in
      Ent_par.Pool.run_indexed pool items (fun i ->
          for _ = 1 to 10_000 / items do
            match Fault.fire site with
            | Some action -> fired.(i) <- action :: fired.(i)
            | None -> ()
          done);
      Alcotest.(check int) "every hit counted" 10_000
        (List.assoc name (Fault.counts ()));
      Alcotest.(check bool) "each arm fired exactly once" true
        (List.sort compare (List.concat (Array.to_list fired))
        = List.sort compare (List.map snd arms)))

(* --- exhaustive crash-point sweep --- *)

(* Truncate a real entangled workload's WAL at EVERY record boundary
   and check the full invariant set on each crash image: recovery
   succeeds, groups are atomic (no widows), the replayed store matches
   the independent survivor-view model, and replay is deterministic. *)
let test_every_crash_point () =
  Fault.deactivate ();
  let world = Tgen.run_workload ~pairs:3 ~with_rollbacks:true in
  let wal = Option.get (Ent_txn.Engine.log (Manager.engine world.manager)) in
  let total = Wal.length wal in
  Alcotest.(check bool) "log is non-trivial" true (total > 40);
  for n = 0 to total do
    let image = Wal.prefix wal n in
    match Recovery.replay image with
    | recovered, analysis ->
      let violations = ref [] in
      let viol _ids invariant detail =
        violations := (invariant, detail) :: !violations
      in
      Harness.check_image viol image recovered analysis;
      (match !violations with
      | [] -> ()
      | (invariant, detail) :: _ ->
        Alcotest.failf "crash point %d/%d: %s: %s" n total invariant detail)
    | exception exn ->
      Alcotest.failf "recovery failed at crash point %d/%d: %s" n total
        (Printexc.to_string exn)
  done

(* A small fixed log whose on-disk encoding we can truncate at every
   byte: under the magic header the load must fail; past it, a cut
   always yields a loadable record-boundary prefix (the torn final
   frame is discarded), and that prefix replays. *)
let small_wal () =
  Fault.deactivate ();
  let w = Wal.create () in
  List.iter
    (fun r -> ignore (Wal.append w r))
    [ Wal.Create { table = "T"; columns = [ ("a", Ent_storage.Schema.T_int) ] };
      Wal.Begin 1;
      Wal.Write
        { txn = 1; table = "T"; row = 0; before = None;
          after = Some [| Ent_storage.Value.Int 1 |] };
      Wal.Commit 1;
      Wal.Entangle_group { event = 1; members = [ 1; 2 ] };
      Wal.Begin 2;
      Wal.Write
        { txn = 2; table = "T"; row = 1; before = None;
          after = Some [| Ent_storage.Value.Int 2 |] };
      Wal.Abort 2;
      Wal.Pool_snapshot [ "p" ] ];
  w

let test_mid_record_truncation_sweep () =
  let w = small_wal () in
  let full = Wal.records w in
  let path = Filename.temp_file "entfault" ".wal" in
  let cut_path = Filename.temp_file "entfault" ".cut" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove cut_path)
    (fun () ->
      Wal.save w path;
      let bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let magic_len = 8 (* "ENTWAL2\n" *) in
      let rec is_prefix xs ys =
        match xs, ys with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      for cut = 0 to String.length bytes do
        let oc = open_out_bin cut_path in
        output_string oc (String.sub bytes 0 cut);
        close_out oc;
        if cut < magic_len then (
          try
            ignore (Wal.load cut_path);
            Alcotest.failf "cut %d: truncated header accepted" cut
          with Failure _ -> ())
        else
          match Wal.load cut_path with
          | loaded ->
            let records = Wal.records loaded in
            if not (is_prefix records full) then
              Alcotest.failf "cut %d: loaded log is not a record prefix" cut;
            (* every surviving prefix must replay cleanly *)
            ignore (Recovery.replay records)
          | exception exn ->
            Alcotest.failf "cut %d: load failed: %s" cut (Printexc.to_string exn)
      done)

(* --- WAL round-trip and recovery idempotence --- *)

let prop_wal_file_roundtrip =
  QCheck2.Test.make ~name:"wal save/load round-trips every record" ~count:60
    Tgen.schedule_gen
    (fun records ->
      Fault.deactivate ();
      let w = Wal.create () in
      List.iter (fun r -> ignore (Wal.append w r)) records;
      let path = Filename.temp_file "entfault" ".wal" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Wal.save w path;
          Wal.records (Wal.load path) = records))

let prop_replay_redo_idempotent =
  (* Records carry full after-images, so re-applying the survivors'
     redo (update/delete) tail after a full replay is a no-op: the
     "replaying a log twice" half of ARIES-style idempotence. *)
  QCheck2.Test.make ~name:"re-applying survivor redo is a no-op" ~count:60
    Tgen.schedule_gen
    (fun records ->
      let _, analysis = Recovery.replay records in
      let redo =
        List.filter
          (function
            | Wal.Write { txn; before = Some _; _ } ->
              List.mem txn analysis.Recovery.survivors
            | _ -> false)
          records
      in
      let once, _ = Recovery.replay records in
      let twice, _ = Recovery.replay (records @ redo) in
      Harness.dump_catalog once = Harness.dump_catalog twice)

let prop_recover_is_fixpoint =
  (* Crashing immediately after recovery and recovering again yields
     the same store: recovery continues the crashed WAL rather than
     re-logging it, so a crash during recovery loses nothing. *)
  QCheck2.Test.make ~name:"recovering a recovered image is a fixpoint" ~count:40
    Tgen.schedule_gen
    (fun records ->
      Fault.deactivate ();
      let direct, _ = Recovery.replay records in
      let engine, _ = Ent_txn.Engine.recover records in
      let wal = Option.get (Ent_txn.Engine.log engine) in
      let again, _ = Recovery.replay (Wal.crash_records wal) in
      Harness.dump_catalog direct = Harness.dump_catalog again)

(* --- generator soundness --- *)

let prop_tuples_inhabit_schema =
  QCheck2.Test.make ~name:"generated tuples inhabit their schema" ~count:200
    Tgen.schema_tuple_gen
    (fun (schema, tuple) ->
      ignore (Ent_storage.Tuple.of_array schema tuple);
      true)

let prop_generated_batches_account =
  (* Generated entangled batches drain with every task accounted for:
     an outcome, or the dormant pool for the partnerless programs. *)
  QCheck2.Test.make ~name:"generated batches drain accountably" ~count:20
    Tgen.entangled_batch_gen
    (fun (programs, lonely) ->
      let config =
        { Scheduler.default_config with trigger = Scheduler.Every_arrivals 3 }
      in
      let m = Tgen.travel_manager ~config () in
      let ids = List.map (Manager.submit m) programs in
      Manager.drain m;
      let dormant = Scheduler.dormant (Manager.scheduler m) in
      List.for_all
        (fun id -> Manager.outcome m id <> None || List.mem id dormant)
        ids
      && List.length dormant = lonely)

(* --- the entsim harness --- *)

let test_harness_seeds_clean () =
  (* a miniature entsim smoke run: seeded fault schedules over the
     standard workload mix must never violate an invariant *)
  let cfg = { Harness.default with pairs = 3; plain = 2; lonely = 1; users = 40 } in
  for seed = 0 to 11 do
    let outcome = Harness.check_seed { cfg with seed } in
    match outcome.violations with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "seed %d (plan %s): %s: %s" seed
        (Plan.to_string outcome.plan) v.invariant v.detail
  done

let test_harness_detects_widows () =
  (* without group commit, a rollback pair produces a widowed
     transaction; the harness must flag it even with no faults armed *)
  let cfg = { Harness.default with break_group_commit = true } in
  let caught = ref false in
  for seed = 0 to 3 do
    if not !caught then
      let outcome = Harness.run { cfg with seed } [] in
      if
        List.exists
          (fun (v : Harness.violation) ->
            v.invariant = "widow" || v.invariant = "history")
          outcome.violations
      then caught := true
  done;
  Alcotest.(check bool) "relaxed isolation is caught" true !caught

let test_harness_shrinks_to_replayable_plan () =
  (* shrinking a violating configuration keeps it violating *)
  let cfg = { Harness.default with break_group_commit = true; seed = 2 } in
  let outcome = Harness.run cfg [] in
  if outcome.violations = [] then
    Alcotest.fail "expected the widow detector to fire on seed 2";
  let shrunk = Harness.shrink cfg [] in
  Alcotest.(check bool) "shrunken plan still violates" true
    (Harness.violates cfg shrunk)

let () =
  Alcotest.run "fault"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "pick and weighted" `Quick test_rng_pick_and_weighted ] );
      ( "plan",
        [ Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Tgen.to_alcotest prop_plan_roundtrip ] );
      ( "injector",
        [ Alcotest.test_case "arm fires once" `Quick test_injector_arm_fires_once;
          Alcotest.test_case "profiling counts" `Quick test_injector_profiling_counts;
          Alcotest.test_case "drop and inactive" `Quick test_injector_drop_and_inactive;
          Alcotest.test_case "hits from several domains" `Quick
            test_injector_domains ] );
      ( "crash-points",
        [ Alcotest.test_case "every record boundary" `Slow test_every_crash_point;
          Alcotest.test_case "every byte of the file encoding" `Quick
            test_mid_record_truncation_sweep ] );
      ( "properties",
        [ Tgen.to_alcotest prop_wal_file_roundtrip;
          Tgen.to_alcotest prop_replay_redo_idempotent;
          Tgen.to_alcotest prop_recover_is_fixpoint;
          Tgen.to_alcotest prop_tuples_inhabit_schema;
          Tgen.to_alcotest prop_generated_batches_account ] );
      ( "harness",
        [ Alcotest.test_case "seeded schedules hold invariants" `Slow
            test_harness_seeds_clean;
          Alcotest.test_case "widow detector" `Quick test_harness_detects_widows;
          Alcotest.test_case "shrinker keeps violation" `Quick
            test_harness_shrinks_to_replayable_plan ] ) ]

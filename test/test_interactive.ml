(* Tests for interactive entangled transactions (the §4 "Interactivity"
   extension): statement-at-a-time sessions, online partner matching,
   group commit across sessions, widowed-transaction prevention. *)

open Ent_storage
open Ent_core
module Certify = Ent_schedule.Certify

(* Every hub is watched by an online certifier, attached through the
   shared observer path; [certified] checks them after a case. *)
let certifiers = ref []

let certified case () =
  certifiers := [];
  case ();
  List.iter
    (fun c ->
      if not (Certify.ok c) then Alcotest.failf "certifier: %a" Certify.pp_report c)
    !certifiers

let fresh_hub () =
  let catalog = Catalog.create () in
  let engine = Ent_txn.Engine.create ~wal:true catalog in
  ignore
    (Ent_txn.Engine.create_table engine "Flights"
       (Schema.make [ { name = "fno"; ty = T_int }; { name = "dest"; ty = T_str } ]));
  ignore
    (Ent_txn.Engine.create_table engine "Bookings"
       (Schema.make [ { name = "who"; ty = T_str }; { name = "fno"; ty = T_int } ]));
  for i = 1 to 3 do
    ignore (Ent_txn.Engine.load engine "Flights" [| Value.Int i; Value.Str "LA" |])
  done;
  let hub = Interactive.create_hub engine in
  let c = Certify.create () in
  Interactive.observe hub ~on_event:(Certify.on_engine_event c)
    ~on_entangle:(Certify.on_entangle c);
  certifiers := c :: !certifiers;
  (engine, hub)

let entangled_query me partner =
  Printf.sprintf
    "SELECT '%s', fno AS @fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
     Flights WHERE dest='LA') AND ('%s', fno) IN ANSWER R CHOOSE 1"
    me partner

let bookings engine =
  let access = Ent_sql.Eval.direct_access (Ent_txn.Engine.catalog engine) in
  match
    Ent_sql.Eval.exec_stmt access (Ent_sql.Eval.fresh_env ())
      (Ent_sql.Parser.parse_stmt "SELECT who, fno FROM Bookings")
  with
  | Ent_sql.Eval.Rows rows -> rows
  | _ -> Alcotest.fail "expected rows"

let test_classical_session () =
  let engine, hub = fresh_hub () in
  let s = Interactive.start hub in
  (match Interactive.execute s "INSERT INTO Bookings VALUES ('solo', 1)" with
  | Interactive.Affected 1 -> ()
  | _ -> Alcotest.fail "insert");
  (match Interactive.execute s "SELECT fno FROM Bookings WHERE who = 'solo'" with
  | Interactive.Rows [ [| Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "read own write");
  (match Interactive.commit s with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "solo commit should be immediate");
  Alcotest.(check int) "booking persisted" 1 (List.length (bookings engine))

let test_online_coordination () =
  let engine, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  let minnie = Interactive.start hub in
  (* Mickey asks first: no partner online yet. *)
  (match Interactive.execute mickey (entangled_query "Mickey" "Minnie") with
  | Interactive.Parked -> ()
  | _ -> Alcotest.fail "mickey should park");
  Alcotest.(check int) "one parked" 1 (Interactive.parked_count hub);
  (* Minnie arrives: both answered immediately. *)
  (match Interactive.execute minnie (entangled_query "Minnie" "Mickey") with
  | Interactive.Answered [ ("R", [ Value.Str "Minnie"; fno ]) ] ->
    (* Mickey sees the same flight at his next poll. *)
    (match Interactive.poll mickey with
    | Interactive.Answered [ ("R", [ Value.Str "Mickey"; fno' ]) ] ->
      Alcotest.(check string) "same flight" (Value.to_string fno)
        (Value.to_string fno')
    | _ -> Alcotest.fail "mickey not answered")
  | _ -> Alcotest.fail "minnie should be answered immediately");
  (* They book and commit; commit is grouped. *)
  ignore (Interactive.execute mickey "INSERT INTO Bookings VALUES ('Mickey', @fno)");
  ignore (Interactive.execute minnie "INSERT INTO Bookings VALUES ('Minnie', @fno)");
  (match Interactive.commit mickey with
  | Interactive.Commit_pending -> ()
  | _ -> Alcotest.fail "mickey must wait for minnie");
  (match Interactive.commit minnie with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "group should commit now");
  (match Interactive.poll mickey with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "mickey committed too");
  Alcotest.(check int) "both bookings" 2 (List.length (bookings engine))

let test_cancel_while_parked () =
  let _, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  Interactive.cancel mickey;
  (match Interactive.poll mickey with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "cancelled session should be aborted");
  Alcotest.(check int) "nothing parked" 0 (Interactive.parked_count hub);
  (* A later partner parks instead of matching the cancelled query. *)
  let minnie = Interactive.start hub in
  match Interactive.execute minnie (entangled_query "Minnie" "Mickey") with
  | Interactive.Parked -> ()
  | _ -> Alcotest.fail "minnie should park (mickey is gone)"

let test_widow_prevention_interactive () =
  let engine, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  let minnie = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  ignore (Interactive.execute minnie (entangled_query "Minnie" "Mickey"));
  ignore (Interactive.execute mickey "INSERT INTO Bookings VALUES ('Mickey', @fno)");
  (* Minnie changes her mind after entangling. *)
  Interactive.cancel minnie;
  (match Interactive.poll mickey with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "mickey must be aborted with his partner");
  Alcotest.(check int) "no orphan booking" 0 (List.length (bookings engine))

let test_blocked_statement_retry () =
  let _, hub = fresh_hub () in
  let writer = Interactive.start hub in
  ignore (Interactive.execute writer "UPDATE Flights SET dest = 'SF' WHERE fno = 1");
  let reader = Interactive.start hub in
  (* full scan needs a table S lock; writer holds IX *)
  (match Interactive.execute reader "SELECT fno FROM Flights" with
  | Interactive.Blocked -> ()
  | _ -> Alcotest.fail "reader should block");
  (match Interactive.commit writer with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "writer commits");
  match Interactive.poll reader with
  | Interactive.Rows rows -> Alcotest.(check int) "reader retried" 3 (List.length rows)
  | _ -> Alcotest.fail "reader should succeed after writer commit"

let test_empty_answer_interactive () =
  (* partner present but no acceptable common value: both proceed with
     NULL bindings (Appendix B empty success) *)
  let _, hub = fresh_hub () in
  let a = Interactive.start hub in
  let b = Interactive.start hub in
  let q me partner =
    Printf.sprintf
      "SELECT '%s', fno AS @fno INTO ANSWER R WHERE (fno) IN (SELECT fno FROM \
       Flights WHERE dest='Mars') AND ('%s', fno) IN ANSWER R CHOOSE 1"
      me partner
  in
  ignore (Interactive.execute a (q "a" "b"));
  (match Interactive.execute b (q "b" "a") with
  | Interactive.Answered [] -> ()
  | _ -> Alcotest.fail "empty success for b");
  match Hashtbl.find_opt (Interactive.env b) "fno" with
  | Some Value.Null -> ()
  | _ -> Alcotest.fail "null binding"

let test_three_way_cycle_interactive () =
  let engine, hub = fresh_hub () in
  ignore engine;
  let users = [ "a"; "b"; "c" ] in
  let sessions = List.map (fun _ -> Interactive.start hub) users in
  let next i = List.nth users ((i + 1) mod 3) in
  List.iteri
    (fun i s ->
      let r = Interactive.execute s (entangled_query (List.nth users i) (next i)) in
      if i < 2 then
        match r with
        | Interactive.Parked -> ()
        | _ -> Alcotest.fail "early members park"
      else
        match r with
        | Interactive.Answered _ -> ()
        | _ -> Alcotest.fail "cycle should close on the last arrival")
    sessions;
  List.iter
    (fun s ->
      match Interactive.poll s with
      | Interactive.Answered _ -> ()
      | _ -> Alcotest.fail "all members answered")
    sessions

let test_api_misuse () =
  let _, hub = fresh_hub () in
  let s = Interactive.start hub in
  ignore (Interactive.execute s "INSERT INTO Bookings VALUES ('x', 1)");
  ignore (Interactive.commit s);
  (* executing on a finished session is a programming error *)
  (try
     ignore (Interactive.execute s "SELECT fno FROM Flights");
     Alcotest.fail "execute after commit accepted"
   with Invalid_argument _ -> ());
  (* committing again is idempotent, polling reports Committed *)
  (match Interactive.commit s with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "re-commit should report Committed");
  (* executing while parked is rejected (poll instead) *)
  let p = Interactive.start hub in
  ignore (Interactive.execute p (entangled_query "P" "Q"));
  (try
     ignore (Interactive.execute p "SELECT fno FROM Flights");
     Alcotest.fail "execute while parked accepted"
   with Invalid_argument _ -> ());
  Interactive.cancel p

let test_parse_error_aborts_session () =
  let _, hub = fresh_hub () in
  let s = Interactive.start hub in
  (match Interactive.execute s "SELEKT nonsense" with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "garbage should abort the session");
  match Interactive.poll s with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "stays aborted"

let test_lex_error_aborts_session () =
  let _, hub = fresh_hub () in
  let s = Interactive.start hub in
  match Interactive.execute s "SELECT 'unterminated" with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "an unterminated string should abort the session"

let test_constraint_in_interactive () =
  let engine, hub = fresh_hub () in
  Ent_txn.Engine.add_constraint engine ~name:"max-one-booking" (fun catalog ->
      match Ent_storage.Catalog.find catalog "Bookings" with
      | Some t -> Ent_storage.Table.cardinal t <= 1
      | None -> true);
  let a = Interactive.start hub in
  ignore (Interactive.execute a "INSERT INTO Bookings VALUES ('a', 1)");
  (match Interactive.commit a with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "first booking fine");
  let b = Interactive.start hub in
  ignore (Interactive.execute b "INSERT INTO Bookings VALUES ('b', 2)");
  match Interactive.commit b with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "second booking must violate"

(* Two pairs whose groundings queue behind the same writer are answered
   in one poll; each pair is its own entanglement group, so one pair
   commits without waiting for the other and a cancel in one leaves the
   other committed. *)
let test_unrelated_pairs_commit_apart () =
  let engine, hub = fresh_hub () in
  let writer = Interactive.start hub in
  ignore (Interactive.execute writer "UPDATE Flights SET dest = 'SF' WHERE fno = 1");
  let a = Interactive.start hub in
  let b = Interactive.start hub in
  let c = Interactive.start hub in
  let d = Interactive.start hub in
  List.iter
    (fun (s, me, partner) ->
      match Interactive.execute s (entangled_query me partner) with
      | Interactive.Parked -> ()
      | _ -> Alcotest.fail "grounding blocked behind the writer: park")
    [ (a, "A", "B"); (b, "B", "A"); (c, "C", "D"); (d, "D", "C") ];
  (match Interactive.commit writer with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "writer commits");
  (match Interactive.poll a with
  | Interactive.Answered _ -> ()
  | _ -> Alcotest.fail "a answered once the writer is gone");
  List.iter
    (fun s ->
      match Interactive.poll s with
      | Interactive.Answered _ -> ()
      | _ -> Alcotest.fail "the same poll answered every pair")
    [ b; c; d ];
  ignore (Interactive.execute a "INSERT INTO Bookings VALUES ('A', @fno)");
  ignore (Interactive.execute b "INSERT INTO Bookings VALUES ('B', @fno)");
  (match Interactive.commit a with
  | Interactive.Commit_pending -> ()
  | _ -> Alcotest.fail "a waits for its partner b");
  (match Interactive.commit b with
  | Interactive.Committed -> ()
  | _ -> Alcotest.fail "a and b commit without waiting for c and d");
  Interactive.cancel c;
  List.iter
    (fun (name, s) ->
      match Interactive.poll s with
      | Interactive.Committed -> ()
      | _ -> Alcotest.fail (name ^ " stays committed after c cancels"))
    [ ("a", a); ("b", b) ];
  (match Interactive.poll d with
  | Interactive.Aborted _ -> ()
  | _ -> Alcotest.fail "d is aborted with its partner c");
  Alcotest.(check int) "a and b booked" 2 (List.length (bookings engine))

(* The hub commits through the scheduler's commit phase, so a crash
   between the member commits of a group commit hits the same fault
   site as a batch run, and recovery rolls the half-committed group
   back. *)
let test_group_commit_crash () =
  let engine, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  let minnie = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  ignore (Interactive.execute minnie (entangled_query "Minnie" "Mickey"));
  ignore (Interactive.execute mickey "INSERT INTO Bookings VALUES ('Mickey', @fno)");
  ignore (Interactive.execute minnie "INSERT INTO Bookings VALUES ('Minnie', @fno)");
  (match Interactive.commit mickey with
  | Interactive.Commit_pending -> ()
  | _ -> Alcotest.fail "mickey must wait for minnie");
  let module Fault = Ent_fault.Injector in
  Fault.install
    [ { Ent_fault.Plan.site = "core.scheduler.group_commit"; hit = 2; action = Crash } ];
  Fun.protect ~finally:Fault.deactivate (fun () ->
      match Interactive.commit minnie with
      | _ -> Alcotest.fail "the second member commit should crash"
      | exception Fault.Crashed _ -> ());
  let wal = Option.get (Ent_txn.Engine.log engine) in
  let recovered, _ = Ent_txn.Engine.recover (Ent_txn.Wal.crash_records wal) in
  Alcotest.(check int) "neither booking survives recovery" 0
    (List.length (bookings recovered))

(* Parked queries are grounded through the scheduler's grounding cache:
   re-grounding an unanswered query on a later poll is a cache hit. *)
let test_poll_hits_grounding_cache () =
  let _, hub = fresh_hub () in
  let mickey = Interactive.start hub in
  ignore (Interactive.execute mickey (entangled_query "Mickey" "Minnie"));
  let hits () =
    let h, _, _ = Scheduler.gcache_stats (Interactive.scheduler hub) in
    h
  in
  ignore (Interactive.poll mickey);
  let before = hits () in
  (match Interactive.poll mickey with
  | Interactive.Parked -> ()
  | _ -> Alcotest.fail "mickey is still waiting");
  Alcotest.(check int) "the second poll hits the cache" (before + 1) (hits ())

(* --- random sessions ---

   2-4 users ask each other for a flight, book it, reroute a flight,
   poll, commit and cancel at random. A clerk session (which never
   cancels) rewrites a Flights row: groundings wait behind its lock and
   re-run once it commits. Users that write Flights can close a
   deadlock through the clerk; a clerk that is its victim is replaced
   by a new one, and once every user has left the last clerk must
   commit. A user's reroute moves a flight out of the
   set every grounding reads, and a later cancel undoes it, so sessions
   that ground on Flights after that abort read the restored row. A
   user reroutes only before it first asks: once entangled, its partners
   share its locks, and a partner's write to Flights would invalidate
   the quasi-reads of Flights the group already made. *)

type op =
  | Ask of int * int  (** user i asks for user j *)
  | Book of int
  | Reroute of int  (** user i moves flight 2 away from LA *)
  | Poll of int
  | Commit of int
  | Cancel of int
  | Touch  (** the clerk rewrites a Flights row *)
  | Clerk_poll
  | Clerk_commit

let user i = Printf.sprintf "u%d" i

let pp_op = function
  | Ask (i, j) -> Printf.sprintf "%s>ask %s" (user i) (user j)
  | Book i -> user i ^ ">book"
  | Reroute i -> user i ^ ">reroute"
  | Poll i -> user i ^ ">poll"
  | Commit i -> user i ^ ">commit"
  | Cancel i -> user i ^ ">cancel"
  | Touch -> "clerk>touch"
  | Clerk_poll -> "clerk>poll"
  | Clerk_commit -> "clerk>commit"

let script_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 4 in
  let op =
    let* i = int_bound (n - 1) in
    frequency
      [ (3, map (fun d -> Ask (i, (i + 1 + d) mod n)) (int_bound (n - 2)));
        (2, return (Book i));
        (1, return (Reroute i));
        (2, return (Poll i));
        (2, return (Commit i));
        (1, return (Cancel i));
        (1, return Touch);
        (1, return Clerk_poll);
        (1, return Clerk_commit) ]
  in
  let* ops = list_size (int_range 1 30) op in
  return (n, ops)

(* Run a script, end every session, and check that the certifier stayed
   clean and that the transactions of every entanglement operation all
   committed or all aborted. *)
let prop_random_sessions =
  QCheck2.Test.make ~name:"random sessions: certified, groups all-or-nothing"
    ~count:300
    ~print:(fun (n, ops) ->
      Printf.sprintf "%d users: %s" n (String.concat "; " (List.map pp_op ops)))
    script_gen
    (fun (n, ops) ->
      let _, hub = fresh_hub () in
      let certifier = List.hd !certifiers in
      let committed = Hashtbl.create 8 in
      let groups = ref [] in
      Interactive.observe hub
        ~on_event:(function
          | Ent_txn.Engine.Ev_commit txn -> Hashtbl.replace committed txn ()
          | _ -> ())
        ~on_entangle:(fun ~event:_ members -> groups := List.map fst members :: !groups);
      let users = Array.init n (fun _ -> Interactive.start hub) in
      let asked = Array.make n false in
      let clerk = ref (Interactive.start hub) in
      let clerk_session () =
        (match Interactive.poll !clerk with
        | Interactive.Committed | Interactive.Aborted "deadlock" ->
          clerk := Interactive.start hub
        | _ -> ());
        !clerk
      in
      let touch () =
        Interactive.execute (clerk_session ())
          "UPDATE Flights SET dest = 'LA' WHERE fno = 1"
      in
      let misuse f = try ignore (f ()) with Invalid_argument _ -> () in
      List.iter
        (function
          | Ask (i, j) ->
            asked.(i) <- true;
            misuse (fun () -> Interactive.execute users.(i) (entangled_query (user i) (user j)))
          | Book i ->
            misuse (fun () ->
                Interactive.execute users.(i)
                  (Printf.sprintf "INSERT INTO Bookings VALUES ('%s', @fno)" (user i)))
          | Reroute i when not asked.(i) ->
            misuse (fun () ->
                Interactive.execute users.(i)
                  "UPDATE Flights SET dest = 'SF' WHERE fno = 2")
          | Reroute _ -> ()
          | Poll i -> misuse (fun () -> Interactive.poll users.(i))
          | Commit i -> misuse (fun () -> Interactive.commit users.(i))
          | Cancel i -> Interactive.cancel users.(i)
          | Touch -> misuse touch
          | Clerk_poll -> misuse (fun () -> Interactive.poll !clerk)
          | Clerk_commit -> misuse (fun () -> Interactive.commit !clerk))
        ops;
      Array.iter Interactive.cancel users;
      misuse (fun () -> Interactive.poll !clerk);
      let clerk_done =
        match Interactive.commit !clerk with
        | Interactive.Committed -> true
        | Interactive.Aborted "deadlock" ->
          ignore (touch ());
          Interactive.commit !clerk = Interactive.Committed
        | _ -> false
      in
      let all_or_nothing group =
        let c = List.filter (Hashtbl.mem committed) group in
        c = [] || List.length c = List.length group
      in
      clerk_done && Certify.ok certifier && List.for_all all_or_nothing !groups)

let () =
  Alcotest.run "interactive"
    [ ( "sessions",
        [ Alcotest.test_case "classical" `Quick (certified test_classical_session);
          Alcotest.test_case "online coordination" `Quick (certified test_online_coordination);
          Alcotest.test_case "cancel while parked" `Quick (certified test_cancel_while_parked);
          Alcotest.test_case "widow prevention" `Quick (certified test_widow_prevention_interactive);
          Alcotest.test_case "blocked retry" `Quick (certified test_blocked_statement_retry);
          Alcotest.test_case "empty answer" `Quick (certified test_empty_answer_interactive);
          Alcotest.test_case "three-way cycle" `Quick (certified test_three_way_cycle_interactive);
          Alcotest.test_case "api misuse" `Quick (certified test_api_misuse);
          Alcotest.test_case "parse error aborts" `Quick (certified test_parse_error_aborts_session);
          Alcotest.test_case "constraints" `Quick (certified test_constraint_in_interactive);
          Alcotest.test_case "unrelated pairs commit apart" `Quick
            (certified test_unrelated_pairs_commit_apart) ] );
      ( "shared scheduler code",
        [ Alcotest.test_case "lex error aborts" `Quick
            (certified test_lex_error_aborts_session);
          Alcotest.test_case "group commit crash" `Quick test_group_commit_crash;
          Alcotest.test_case "poll hits the grounding cache" `Quick
            (certified test_poll_hits_grounding_cache);
          Gen.to_alcotest prop_random_sessions ] ) ]

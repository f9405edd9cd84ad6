module Obs = Ent_obs.Obs
module Fault = Ent_fault.Injector

(* Injection points: a whole coordination round can be abandoned by
   the middleware, or individual participants can drop out mid-round
   (a partner disconnecting between grounding and matching). Both
   resolve to No_partner, sending the affected transactions back to
   the dormant pool. *)
let s_round_abort = Fault.site "entangle.coordinate.round_abort"
let s_partner_drop = Fault.site "entangle.coordinate.partner_drop"

let m_evaluations = Obs.counter "entangle.coordinate.evaluations"
let m_nodes = Obs.counter "entangle.coordinate.nodes_expanded"
let m_answered = Obs.counter "entangle.coordinate.answered"
let m_empty = Obs.counter "entangle.coordinate.empty"
let m_no_partner = Obs.counter "entangle.coordinate.no_partner"

(* Match latency is wall-clock and therefore nondeterministic; it is
   only observed when span tracing is on (like spans themselves), so
   default runs stay byte-identical across reruns. The histogram is
   still registered eagerly: a count-0 summary is deterministic and
   keeps the metric discoverable. *)
let m_latency = Obs.histogram "entangle.coordinate.match_latency_us"

type outcome =
  | Answered of Ground.grounding
  | Empty
  | No_partner

let sig_of (a : Ir.atom) = (a.rel, List.length a.args)

(* --- structural participation (Appendix B) --- *)

(* Fixpoint: repeatedly drop queries having a postcondition pattern
   that unifies with no remaining query's head pattern. Dropped
   queries are the No_partner ones; the criterion only looks at query
   structure, never at data, as Appendix B requires.

   Maintained incrementally: each postcondition keeps a count of the
   alive heads it unifies with (candidates narrowed by (rel, arity)
   buckets); when a query dies its heads decrement the counts of the
   posts they supported, and a count reaching zero kills that post's
   owner in turn (worklist). Total work is bounded by the number of
   unifiable (post, head) pairs, instead of pairs × fixpoint rounds.

   The tables are module-level scratch, cleared (not re-allocated) at
   the start of every call: [Hashtbl.clear] keeps the bucket arrays, so
   a steady-state round allocates no fresh tables and capacity is
   bounded by the largest round seen. Every caller runs on the
   coordinator, so sharing the scratch is safe. *)
let posts_by_sig : (string * int, (int * Ir.atom * int ref) list ref) Hashtbl.t
    =
  Hashtbl.create 64

let sb_alive : (int, bool) Hashtbl.t = Hashtbl.create 64
let sb_heads : (int, Ir.atom list) Hashtbl.t = Hashtbl.create 64

let structurally_blocked queries =
  Hashtbl.clear posts_by_sig;
  Hashtbl.clear sb_alive;
  Hashtbl.clear sb_heads;
  (* posts bucketed by signature, as (owner qid, support count ref) *)
  let bucket s =
    match Hashtbl.find_opt posts_by_sig s with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.add posts_by_sig s b;
      b
  in
  List.iter
    (fun (qid, (q : Ir.t)) ->
      Hashtbl.replace sb_alive qid true;
      Hashtbl.replace sb_heads qid q.head;
      List.iter
        (fun post ->
          let b = bucket (sig_of post) in
          b := (qid, post, ref 0) :: !b)
        q.post)
    queries;
  (* initial support: every (post, head) unifiable pair, same-signature
     candidates only *)
  List.iter
    (fun (_, (q : Ir.t)) ->
      List.iter
        (fun head ->
          match Hashtbl.find_opt posts_by_sig (sig_of head) with
          | None -> ()
          | Some b ->
            List.iter
              (fun (_, post, count) ->
                if Ir.unifiable post head then incr count)
              !b)
        q.head)
    queries;
  let worklist = Queue.create () in
  let kill qid =
    if Hashtbl.find sb_alive qid then begin
      Hashtbl.replace sb_alive qid false;
      Queue.add qid worklist
    end
  in
  Hashtbl.iter
    (fun _ b ->
      List.iter (fun (qid, _, count) -> if !count = 0 then kill qid) !b)
    posts_by_sig;
  while not (Queue.is_empty worklist) do
    let dead = Queue.pop worklist in
    List.iter
      (fun head ->
        match Hashtbl.find_opt posts_by_sig (sig_of head) with
        | None -> ()
        | Some b ->
          List.iter
            (fun (qid, post, count) ->
              if Hashtbl.find sb_alive qid && Ir.unifiable post head then begin
                decr count;
                if !count = 0 then kill qid
              end)
            !b)
      (Hashtbl.find sb_heads dead)
  done;
  List.filter_map
    (fun (qid, _) -> if Hashtbl.find sb_alive qid then None else Some qid)
    queries

(* --- coordination search --- *)

module Atom_tbl = Hashtbl

(* One backtracking search over a participant set. Pure apart from its
   own tables — event emission, faults, blocking and all metrics belong
   to [evaluate]. Returns the committed assignment and the total nodes
   expanded across seeds. *)
let search ~budget participants =
  (* Index every grounding by each of its head atoms. *)
  let head_index : (Ir.ground_atom, (int * Ground.grounding) list) Atom_tbl.t =
    Atom_tbl.create 256
  in
  List.iter
    (fun (qid, _, groundings) ->
      List.iter
        (fun (g : Ground.grounding) ->
          List.iter
            (fun atom ->
              let existing =
                Option.value ~default:[] (Atom_tbl.find_opt head_index atom)
              in
              Atom_tbl.replace head_index atom ((qid, g) :: existing))
            g.g_head)
        groundings)
    participants;
  let assignment : (int, Ground.grounding) Hashtbl.t = Hashtbl.create 16 in
  let provided : (Ir.ground_atom, int) Hashtbl.t = Hashtbl.create 64 in
  let provide atom =
    Hashtbl.replace provided atom
      (1 + Option.value ~default:0 (Hashtbl.find_opt provided atom))
  in
  let unprovide atom =
    match Hashtbl.find_opt provided atom with
    | Some 1 -> Hashtbl.remove provided atom
    | Some n -> Hashtbl.replace provided atom (n - 1)
    | None -> ()
  in
  let nodes = ref 0 in
  let total_nodes = ref 0 in
  (* Try to cover every atom on the agenda by (possibly) assigning
     groundings to so-far-unassigned queries. Undoes its own side
     effects on failure. *)
  let rec satisfy agenda =
    incr nodes;
    if !nodes > budget then false
    else
      match agenda with
      | [] -> true
      | atom :: rest ->
        if Hashtbl.mem provided atom then satisfy rest
        else
          let candidates =
            List.rev
              (Option.value ~default:[] (Atom_tbl.find_opt head_index atom))
          in
          let try_candidate (qid, g) =
            match Hashtbl.find_opt assignment qid with
            | Some g' -> g' == g && satisfy rest
            (* an assigned query provides its heads already, so if g'==g
               the atom would have been in [provided]; this branch only
               matters when the candidate equals the assignment *)
            | None ->
              Hashtbl.replace assignment qid g;
              List.iter provide g.g_head;
              if satisfy (g.g_post @ rest) then true
              else begin
                List.iter unprovide g.g_head;
                Hashtbl.remove assignment qid;
                false
              end
          in
          List.exists try_candidate candidates
  in
  (* Greedy seeding: answer queries in submission order; each success
     commits its (closed) partial assignment. *)
  List.iter
    (fun (qid, _, groundings) ->
      if not (Hashtbl.mem assignment qid) then begin
        nodes := 0;
        let try_grounding (g : Ground.grounding) =
          Hashtbl.replace assignment qid g;
          List.iter provide g.g_head;
          if satisfy g.g_post then true
          else begin
            List.iter unprovide g.g_head;
            Hashtbl.remove assignment qid;
            false
          end
        in
        ignore (List.exists try_grounding groundings);
        total_nodes := !total_nodes + !nodes
      end)
    participants;
  (assignment, !total_nodes)

(* One coordination round: count and log it, apply fault drops, run the
   structural-participation check, search the survivors, then classify
   every query and record the outcome counters and (tracing-gated)
   wall-clock match latency. *)
let evaluate ?(budget = 200_000) queries =
  let t_start = Ent_obs.Clock.monotonic () in
  Obs.incr m_evaluations;
  if Ent_obs.Event.logging () then
    Ent_obs.Event.emit
      (Ent_obs.Event.Coord_round
         { participants = List.map (fun (qid, _, _) -> qid) queries });
  let dropped =
    if Fault.drops s_round_abort then List.map (fun (qid, _, _) -> qid) queries
    else
      List.filter_map
        (fun (qid, _, _) ->
          if Fault.drops s_partner_drop then Some qid else None)
        queries
  in
  let set_of ids =
    let set = Hashtbl.create (List.length ids) in
    List.iter (fun id -> Hashtbl.replace set id ()) ids;
    set
  in
  let dropped_set = set_of dropped in
  let live =
    List.filter (fun (qid, _, _) -> not (Hashtbl.mem dropped_set qid)) queries
  in
  let blocked =
    structurally_blocked (List.map (fun (q, ir, _) -> (q, ir)) live)
  in
  let blocked_set = set_of (dropped @ blocked) in
  let participants =
    List.filter (fun (qid, _, _) -> not (Hashtbl.mem blocked_set qid)) live
  in
  let assignment, total_nodes = search ~budget participants in
  Obs.incr ~n:total_nodes m_nodes;
  let results =
    List.map
      (fun (qid, _, _) ->
        if Hashtbl.mem blocked_set qid then (qid, No_partner)
        else
          match Hashtbl.find_opt assignment qid with
          | Some g -> (qid, Answered g)
          | None -> (qid, Empty))
      queries
  in
  List.iter
    (fun (_, outcome) ->
      Obs.incr
        (match outcome with
        | Answered _ -> m_answered
        | Empty -> m_empty
        | No_partner -> m_no_partner))
    results;
  if Obs.tracing () then
    Obs.observe m_latency (1e6 *. (Ent_obs.Clock.monotonic () -. t_start));
  results


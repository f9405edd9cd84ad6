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

type outcome =
  | Answered of Ground.grounding
  | Empty
  | No_partner

(* --- structural participation (Appendix B) --- *)

(* Fixpoint: repeatedly drop queries having a postcondition pattern
   that unifies with no remaining query's head pattern. Dropped
   queries are the No_partner ones; the criterion only looks at query
   structure, never at data, as Appendix B requires.

   Maintained incrementally: each postcondition keeps a count of the
   alive heads it unifies with; when a query dies its heads decrement
   the counts of the posts they supported, and a count reaching zero
   kills that post's owner in turn (worklist). Total work is bounded
   by the number of unifiable (post, head) pairs, instead of pairs ×
   fixpoint rounds.

   Both passes probe with a head, so only posts are indexed: by
   (rel, arity, position, constant), and per (rel, arity, position)
   the posts holding a variable there. A post can unify with a head
   only if, at each of the head's constant positions, it holds the
   same constant or a variable; the head probes the two buckets of its
   narrowest constant position and confirms each candidate with
   [Ir.unifiable]. An all-variable head unifies with every post of its
   signature. The tables belong to the call: concurrent callers share
   nothing. *)
type sb_query = {
  qid : int;
  heads : Ir.atom list;
  mutable alive : bool;
}

type sb_post = {
  owner : sb_query;
  pattern : Ir.atom;
  mutable support : int;  (** alive heads unifying with [pattern] *)
}

type bucket = {
  mutable posts : sb_post list;
  mutable size : int;
}

let structurally_blocked queries =
  let n = List.length queries in
  let by_sig = Hashtbl.create n in
  let by_const = Hashtbl.create n in
  let by_var = Hashtbl.create n in
  let add tbl key p =
    match Hashtbl.find_opt tbl key with
    | Some b ->
      b.posts <- p :: b.posts;
      b.size <- b.size + 1
    | None -> Hashtbl.add tbl key { posts = [ p ]; size = 1 }
  in
  let owners =
    List.map
      (fun (qid, (q : Ir.t)) ->
        let owner = { qid; heads = q.head; alive = true } in
        List.iter
          (fun (pattern : Ir.atom) ->
            let p = { owner; pattern; support = 0 } in
            let arity = List.length pattern.args in
            add by_sig (pattern.rel, arity) p;
            List.iteri
              (fun i -> function
                | Ir.Const c -> add by_const (pattern.rel, arity, i, c) p
                | Ir.Var _ -> add by_var (pattern.rel, arity, i) p)
              pattern.args)
          q.post;
        owner)
      queries
  in
  let find tbl key =
    match Hashtbl.find_opt tbl key with
    | Some b -> b
    | None -> { posts = []; size = 0 }
  in
  (* [f] on every post that unifies with [head] *)
  let iter_unifiable (head : Ir.atom) f =
    let arity = List.length head.args in
    let rec narrowest i best = function
      | [] -> best
      | Ir.Var _ :: rest -> narrowest (i + 1) best rest
      | Ir.Const c :: rest ->
        let cs = find by_const (head.rel, arity, i, c) in
        let vs = find by_var (head.rel, arity, i) in
        let best =
          match best with
          | Some (bc, bv) when bc.size + bv.size <= cs.size + vs.size -> best
          | _ -> Some (cs, vs)
        in
        if cs.size + vs.size = 0 then best else narrowest (i + 1) best rest
    in
    let check p = if Ir.unifiable p.pattern head then f p in
    match narrowest 0 None head.args with
    | None -> List.iter check (find by_sig (head.rel, arity)).posts
    | Some (cs, vs) ->
      List.iter check cs.posts;
      List.iter check vs.posts
  in
  List.iter
    (fun o ->
      List.iter
        (fun head -> iter_unifiable head (fun p -> p.support <- p.support + 1))
        o.heads)
    owners;
  let worklist = Queue.create () in
  let kill owner =
    if owner.alive then begin
      owner.alive <- false;
      Queue.add owner worklist
    end
  in
  Hashtbl.iter
    (fun _ b -> List.iter (fun p -> if p.support = 0 then kill p.owner) b.posts)
    by_sig;
  while not (Queue.is_empty worklist) do
    List.iter
      (fun head ->
        iter_unifiable head (fun p ->
            if p.owner.alive then begin
              p.support <- p.support - 1;
              if p.support = 0 then kill p.owner
            end))
      (Queue.pop worklist).heads
  done;
  List.filter_map (fun o -> if o.alive then None else Some o.qid) owners

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
   every query and record the outcome counters. *)
let evaluate ?(budget = 200_000) queries =
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
  results


(* Injection-point registry and the active fault plan.

   Each subsystem declares its injection points once, at module
   initialisation, with [site]; the returned handle is hit on every
   pass through the instrumented code path. When no plan is installed
   (the default, and the only mode benchmarks ever run in) a hit is a
   single ref read — the registry costs nothing until a harness arms
   it. Hit counters are per-installation, so the same (seed, plan)
   pair always fires the same arms at the same points. They are
   atomic, so sites hit from several domains count every hit and fire
   every arm exactly once. *)

exception Crashed of string  (* simulated process death at the named site *)
exception Failed of string   (* injected component failure at the named site *)

type site = {
  name : string;
  hits : int Atomic.t;
  mutable arms : (int * Plan.action) list;
}

let registry : (string, site) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []
let active = ref false

let site name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
    let s = { name; hits = Atomic.make 0; arms = [] } in
    Hashtbl.replace registry name s;
    order := name :: !order;
    s

let all_sites () = List.rev !order

let reset () =
  Hashtbl.iter
    (fun _ s ->
      Atomic.set s.hits 0;
      s.arms <- [])
    registry

(* Install a plan and start counting hits. The empty plan is the
   profiling mode: nothing fires, but [counts] reports how often each
   site was reached, which bounds the hit counts of generated plans. *)
let install plan =
  reset ();
  List.iter
    (fun (a : Plan.arm) ->
      let s = site a.site in
      s.arms <- s.arms @ [ (a.hit, a.action) ])
    plan;
  active := true

let deactivate () =
  active := false;
  reset ()

let counts () =
  List.map (fun name -> (name, Atomic.get (site name).hits)) (all_sites ())

(* One pass through the site: count it and return the first action
   armed at this hit number, if any. Every pass takes a distinct hit
   number, so each arm fires exactly once and a duplicate arm never
   fires. *)
let fire s =
  if not !active then None
  else List.assoc_opt (Atomic.fetch_and_add s.hits 1 + 1) s.arms

let crash s = raise (Crashed s.name)
let fail s = raise (Failed s.name)

(* Exception-style site: any armed fault kills or fails the process. *)
let hit s =
  match fire s with
  | None | Some Plan.Drop -> ()
  | Some (Plan.Crash | Plan.Torn) -> crash s
  | Some Plan.Fail -> fail s

(* Behavioural site: Fail/Drop flip the guarded behaviour (return
   true); Crash/Torn still kill the process. *)
let drops s =
  match fire s with
  | None -> false
  | Some (Plan.Fail | Plan.Drop) -> true
  | Some (Plan.Crash | Plan.Torn) -> crash s

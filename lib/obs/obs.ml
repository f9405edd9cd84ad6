(* Global metrics registry.

   Metric names follow "layer.component.metric" (DESIGN.md §3). Hot
   paths bump counters through [Atomic] — an instrumented site costs
   one fetch-and-add, cheap enough to stay on by default.

   Everything lives in one process-global registry: instrumentation in
   lib/txn, lib/storage, lib/entangle and lib/core registers metrics at
   module initialization and never threads a handle around. *)

(* Counters and histograms are striped by executing domain so parallel
   runs never contend on (or race through) a shared cell: stripe
   [domain_id land (stripes - 1)] takes the update, and reads merge.
   Deterministic runs execute everything on domain 0, so exactly one
   stripe is populated and merged reads are bitwise identical to the
   unstriped implementation. *)
let stripes = 16

let stripe () = (Domain.self () :> int) land (stripes - 1)

type counter = int Atomic.t array
type gauge = float Atomic.t

(* Each histogram stripe has its own mutex: [Hist.observe] mutates a
   hashtable of buckets, which is not safe to share across domains
   (ground/gcache observe footprint histograms from worker domains).
   Stripe mutexes are uncontended except under real parallelism. *)
type histogram = (Mutex.t * Hist.t) array

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Registration/lookup is a rare path (module initialization, lookups
   by name), but it may run on any domain; the mutex keeps the registry
   hashtable itself safe. Metric updates never take it — they go
   through the Atomic cells. *)
let reg_mu = Mutex.create ()

let locked f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let intern name make describe =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match describe m with
        | Some v -> v
        | None ->
          invalid_arg (Printf.sprintf "Obs: %s registered with another type" name))
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name m;
        v)

let counter name =
  intern name
    (fun () ->
      let c = Array.init stripes (fun _ -> Atomic.make 0) in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr ?(n = 1) c = ignore (Atomic.fetch_and_add c.(stripe ()) n)
let counter_value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c

let gauge name =
  intern name
    (fun () ->
      let g = Atomic.make 0.0 in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g v

let histogram ?alpha name =
  intern name
    (fun () ->
      let h =
        Array.init stripes (fun _ -> (Mutex.create (), Hist.create ?alpha ()))
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  let mu, hs = h.(stripe ()) in
  Mutex.lock mu;
  Hist.observe hs v;
  Mutex.unlock mu

(* Merged snapshot of all stripes. A single populated stripe (every
   deterministic run) returns a plain copy, so summaries are bitwise
   identical to the unstriped implementation; with several stripes the
   merge order is stripe-index order, deterministic given the stripe
   contents. *)
let hist h =
  let parts =
    Array.to_list h
    |> List.filter_map (fun (mu, hs) ->
           Mutex.lock mu;
           let c = if Hist.count hs > 0 then Some (Hist.copy hs) else None in
           Mutex.unlock mu;
           c)
  in
  match parts with
  | [] -> Hist.copy (snd h.(0))
  | [ one ] -> one
  | first :: rest ->
    List.iter (fun hs -> Hist.merge_into ~into:first hs) rest;
    first


(* --- lookups (tests, CLI) --- *)

let find name = locked (fun () -> Hashtbl.find_opt registry name)

let find_counter name =
  match find name with
  | Some (Counter c) -> Some (counter_value c)
  | _ -> None

let find_gauge name =
  match find name with
  | Some (Gauge g) -> Some (Atomic.get g)
  | _ -> None

let find_histogram name =
  match find name with
  | Some (Histogram h) -> Some (hist h)
  | _ -> None

(* --- snapshot --- *)

let sorted_registry () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (locked (fun () ->
         Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []))

let snapshot_json () =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> counters := (name, Json.Int (counter_value c)) :: !counters
      | Gauge g ->
        let v = Atomic.get g in
        gauges := (name, Json.Float (if Float.is_finite v then v else 0.0)) :: !gauges
      | Histogram h -> hists := (name, Hist.summary (hist h)) :: !hists)
    (sorted_registry ());
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !hists));
    ]

let snapshot () = Json.to_string (snapshot_json ())

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c
          | Gauge g -> Atomic.set g 0.0
          | Histogram h ->
            Array.iter
              (fun (mu, hs) ->
                Mutex.lock mu;
                Hist.reset hs;
                Mutex.unlock mu)
              h)
        registry);
  Event.reset ()

let metric_names () = List.map fst (sorted_registry ())

let write_snapshot path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (snapshot ());
      output_char oc '\n')

(* Windowed time-series over the metrics registry.

   A series is a value: its ring, window clock and counter bases belong
   to it, and the scheduler it is handed to (Scheduler.config's
   [timeseries]) samples it from the coordinator between parallel
   phases, so histogram reads never race worker observes and the
   series is touched from one domain only. When a sample crosses a
   window boundary, the window that just ended is "closed": every
   registered counter contributes its delta since the window opened,
   every histogram a bucket-wise delta histogram (Hist.diff of two
   cumulative snapshots — exact counts, alpha-accurate quantiles), and
   every gauge its value at close. Closed windows land in a fixed-size
   ring and are passed to the series' [on_window] callback.

   Attribution semantics: a window's deltas are whatever accumulated
   between the sample that opened it and the sample that closed it.
   With the scheduler sampling every progress-loop iteration the
   resolution is one scheduler step; the QCheck oracle test drives
   sample/observe in lockstep where attribution is exact.

   Simulated-time quirks the scheduler imposes:
   - time can jump far forward (timeout wakeups): the pre-jump window
     closes with its deltas, empty windows fill the gap, and a jump
     longer than the whole ring just re-anchors (the skipped empties
     would all be overwritten anyway);
   - time can go backwards (entsim crash/recovery restarts the pool
     clock): we re-anchor at the new epoch and keep the counter bases,
     so pre-crash deltas roll into the first post-crash window rather
     than being lost or double-counted.
   A series never spans an [Obs.reset]: the bases would be ahead of the
   zeroed metrics. Callers that reset between cells create a fresh
   series per cell. *)

type window = {
  w_start : float;
  w_width : float;
  w_counters : (string * int) list;
  w_gauges : (string * float) list;
  w_hists : (string * Hist.t) list;
}

type t = {
  width : float;
  ring : window option array;
  on_window : window -> unit;
  mutable total : int; (* windows ever closed; ring slot = total mod capacity *)
  mutable anchored : bool;
  mutable cur_start : float;
  mutable last_now : float;
  base_counters : (string, int) Hashtbl.t;
  base_hists : (string, Hist.t) Hashtbl.t;
}

let create ?(width = 1.0) ?(capacity = 120) ?(on_window = ignore) () =
  if width <= 0.0 || not (Float.is_finite width) then
    invalid_arg "Timeseries.create: width must be positive";
  if capacity <= 0 then
    invalid_arg "Timeseries.create: capacity must be positive";
  {
    width;
    ring = Array.make capacity None;
    on_window;
    total = 0;
    anchored = false;
    cur_start = 0.0;
    last_now = 0.0;
    base_counters = Hashtbl.create 64;
    base_hists = Hashtbl.create 16;
  }

let align t now = Float.floor (now /. t.width) *. t.width

(* Snapshot bases without producing a window (used when anchoring:
   there is no previous window to attribute to). *)
let rebase t =
  Hashtbl.reset t.base_counters;
  Hashtbl.reset t.base_hists;
  List.iter
    (fun name ->
      match Obs.find_counter name with
      | Some v -> Hashtbl.replace t.base_counters name v
      | None -> (
        match Obs.find_histogram name with
        | Some h -> Hashtbl.replace t.base_hists name (Hist.copy h)
        | None -> ()))
    (Obs.metric_names ())

(* Close the window [cur_start, cur_start+width) against the current
   bases, advancing the bases to the new snapshot; push it on the ring,
   move the window clock to [next], then hand the window on. *)
let close_window t ~width ~next =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun name ->
      match Obs.find_counter name with
      | Some v ->
        let b = Option.value ~default:0 (Hashtbl.find_opt t.base_counters name) in
        if v <> b then counters := (name, v - b) :: !counters;
        Hashtbl.replace t.base_counters name v
      | None -> (
        match Obs.find_gauge name with
        | Some v -> gauges := (name, v) :: !gauges
        | None -> (
          match Obs.find_histogram name with
          | Some h ->
            let d =
              match Hashtbl.find_opt t.base_hists name with
              | Some b -> Hist.diff ~newer:h ~older:b
              | None -> Hist.copy h
            in
            if Hist.count d > 0 then hists := (name, d) :: !hists;
            Hashtbl.replace t.base_hists name (Hist.copy h)
          | None -> ())))
    (Obs.metric_names ());
  let w =
    {
      w_start = t.cur_start;
      w_width = width;
      w_counters = List.rev !counters;
      w_gauges = List.rev !gauges;
      w_hists = List.rev !hists;
    }
  in
  t.ring.(t.total mod Array.length t.ring) <- Some w;
  t.total <- t.total + 1;
  t.cur_start <- next;
  t.on_window w

let sample t now =
  t.last_now <- now;
  if not t.anchored then begin
    t.anchored <- true;
    t.cur_start <- align t now;
    rebase t
  end
  else if now < t.cur_start then
    (* clock went backwards: new simulated epoch, keep the bases *)
    t.cur_start <- align t now
  else if int_of_float ((now -. t.cur_start) /. t.width) > Array.length t.ring
  then
    (* bank the pre-jump deltas, then skip the unrepresentable gap *)
    close_window t ~width:t.width ~next:(align t now)
  else
    while now >= t.cur_start +. t.width do
      close_window t ~width:t.width ~next:(t.cur_start +. t.width)
    done

let flush t =
  if t.anchored && t.last_now > t.cur_start then
    close_window t ~width:(t.last_now -. t.cur_start) ~next:t.last_now

let windows t =
  let cap = Array.length t.ring in
  let n = min t.total cap in
  let first = t.total - n in
  List.init n (fun i -> Option.get t.ring.((first + i) mod cap))

let counter_delta w name =
  Option.value ~default:0 (List.assoc_opt name w.w_counters)

let window_hist w name = List.assoc_opt name w.w_hists

let window_json w =
  let fin v = Json.Float (if Float.is_finite v then v else 0.0) in
  Json.Obj
    [
      ("start", fin w.w_start);
      ("width", fin w.w_width);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) w.w_counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, fin v)) w.w_gauges));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, Hist.summary h)) w.w_hists) );
    ]

let to_json t =
  Json.Obj
    [
      ("window_s", Json.Float t.width);
      ("windows", Json.List (List.map window_json (windows t)));
    ]

(* Online SLO evaluation with multi-window burn-rate alerts.

   Specs name a registered metric and a bound: a latency quantile
   ceiling over a histogram, a rate ceiling over a counter, or a mean
   floor over a histogram (min group-commit size). Each spec is
   evaluated on every closed time-series window over two trailing
   ranges — a short window (fast burn) and a long window (sustained
   burn) — and an alert fires only when BOTH ranges breach, the
   standard burn-rate trick: a single hot window inside an otherwise
   healthy long range does not page, and a slow sustained leak does.

   Windows with no samples are not breaches for latency/mean specs
   (there is nothing to measure); rate specs treat them as zero events
   over elapsed time, which is the honest reading. *)

type kind =
  | Latency of { quantile : float; max_s : float }
  | Rate of { max_per_s : float }
  | Min_mean of { min_mean : float }

type spec = {
  sp_name : string;
  sp_metric : string;
  sp_kind : kind;
  sp_short : int;  (* trailing windows in the short range *)
  sp_long : int;  (* trailing windows in the long range *)
}

type alert = {
  al_spec : string;
  al_window_start : float;
  al_short : float;
  al_long : float;
  al_threshold : float;
}

type entry = { e_width : float; e_delta : int; e_hist : Hist.t option }

type sstate = {
  spec : spec;
  mutable entries : entry list;  (* newest first, length <= sp_long *)
  mutable breaches : int;
  mutable worst : float option;
}

type t = {
  states : sstate list;
  mutable windows_seen : int;
  mutable total_breaches : int;
  mutable alerts : alert list;  (* newest first, capped *)
}

let max_alerts = 64

let create specs =
  {
    states =
      List.map
        (fun spec -> { spec; entries = []; breaches = 0; worst = None })
        specs;
    windows_seen = 0;
    total_breaches = 0;
    alerts = [];
  }

let take k l = List.filteri (fun i _ -> i < k) l

(* Value of the spec over its last [k] window entries; None = no data. *)
let value_over st k =
  let es = take k st.entries in
  match st.spec.sp_kind with
  | Rate { max_per_s = _ } ->
    let events = List.fold_left (fun a e -> a + e.e_delta) 0 es in
    let elapsed = List.fold_left (fun a e -> a +. e.e_width) 0.0 es in
    if elapsed <= 0.0 then None else Some (float_of_int events /. elapsed)
  | (Latency _ | Min_mean _) as k -> (
    let merged =
      List.fold_left
        (fun acc e ->
          match (acc, e.e_hist) with
          | None, Some h -> Some (Hist.copy h)
          | Some m, Some h ->
            Hist.merge_into ~into:m h;
            Some m
          | acc, None -> acc)
        None es
    in
    match merged with
    | None -> None
    | Some m when Hist.count m = 0 -> None
    | Some m -> (
      match k with
      | Latency { quantile; _ } -> Some (Hist.quantile m quantile)
      | _ -> Some (Hist.mean m)))

let threshold spec =
  match spec.sp_kind with
  | Latency { max_s; _ } -> max_s
  | Rate { max_per_s } -> max_per_s
  | Min_mean { min_mean } -> min_mean

let breaches spec v =
  match spec.sp_kind with
  | Latency { max_s; _ } -> v > max_s
  | Rate { max_per_s } -> v > max_per_s
  | Min_mean { min_mean } -> v < min_mean

(* Higher is worse for ceilings, lower is worse for floors. *)
let worse spec a b =
  match spec.sp_kind with Min_mean _ -> Float.min a b | _ -> Float.max a b

let observe t (w : Timeseries.window) =
  t.windows_seen <- t.windows_seen + 1;
  List.iter
    (fun st ->
      let entry =
        {
          e_width = w.Timeseries.w_width;
          e_delta = Timeseries.counter_delta w st.spec.sp_metric;
          e_hist = Timeseries.window_hist w st.spec.sp_metric;
        }
      in
      st.entries <- take st.spec.sp_long (entry :: st.entries);
      let short = value_over st st.spec.sp_short in
      let long = value_over st st.spec.sp_long in
      (match short with
      | Some v ->
        st.worst <-
          Some (match st.worst with None -> v | Some w -> worse st.spec v w)
      | None -> ());
      match (short, long) with
      | Some s, Some l when breaches st.spec s && breaches st.spec l ->
        st.breaches <- st.breaches + 1;
        t.total_breaches <- t.total_breaches + 1;
        if List.length t.alerts < max_alerts then
          t.alerts <-
            {
              al_spec = st.spec.sp_name;
              al_window_start = w.Timeseries.w_start;
              al_short = s;
              al_long = l;
              al_threshold = threshold st.spec;
            }
            :: t.alerts
      | _ -> ())
    t.states

let ok t = t.total_breaches = 0
let alerts t = List.rev t.alerts

let kind_label = function
  | Latency _ -> "latency"
  | Rate _ -> "rate"
  | Min_mean _ -> "min_mean"

let fin v = Json.Float (if Float.is_finite v then v else 0.0)

let report_json t =
  let spec_json st =
    Json.Obj
      ([
         ("name", Json.Str st.spec.sp_name);
         ("metric", Json.Str st.spec.sp_metric);
         ("kind", Json.Str (kind_label st.spec.sp_kind));
       ]
      @ (match st.spec.sp_kind with
        | Latency { quantile; _ } -> [ ("quantile", fin quantile) ]
        | _ -> [])
      @ [
          ("threshold", fin (threshold st.spec));
          ("short_windows", Json.Int st.spec.sp_short);
          ("long_windows", Json.Int st.spec.sp_long);
          ("breaches", Json.Int st.breaches);
          ("worst", match st.worst with None -> Json.Null | Some v -> fin v);
          ("ok", Json.Bool (st.breaches = 0));
        ])
  in
  let alert_json al =
    Json.Obj
      [
        ("spec", Json.Str al.al_spec);
        ("window_start", fin al.al_window_start);
        ("short_value", fin al.al_short);
        ("long_value", fin al.al_long);
        ("threshold", fin al.al_threshold);
      ]
  in
  Json.Obj
    [
      ("ok", Json.Bool (ok t));
      ("windows_evaluated", Json.Int t.windows_seen);
      ("total_breaches", Json.Int t.total_breaches);
      ("specs", Json.List (List.map spec_json t.states));
      ("alerts", Json.List (List.map alert_json (alerts t)));
    ]

(* --- spec files --- *)

let spec_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let num k = Option.bind (Json.member k j) Json.to_float_opt in
  let int_d k d =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some v -> v
    | None -> d
  in
  match (str "name", str "metric", str "kind") with
  | None, _, _ -> Error "slo entry: missing \"name\""
  | _, None, _ -> Error "slo entry: missing \"metric\""
  | _, _, None -> Error "slo entry: missing \"kind\""
  | Some name, Some metric, Some kind_s -> (
    let finish sp_kind =
      let sp_short = int_d "short_windows" 1 in
      let sp_long = int_d "long_windows" 5 in
      if sp_short < 1 || sp_long < sp_short then
        Error
          (Printf.sprintf
             "slo %s: need 1 <= short_windows (%d) <= long_windows (%d)" name
             sp_short sp_long)
      else Ok { sp_name = name; sp_metric = metric; sp_kind; sp_short; sp_long }
    in
    match kind_s with
    | "latency" -> (
      let quantile = Option.value ~default:0.99 (num "quantile") in
      match num "threshold_s" with
      | None -> Error (Printf.sprintf "slo %s: latency needs \"threshold_s\"" name)
      | Some max_s ->
        if quantile <= 0.0 || quantile >= 1.0 then
          Error (Printf.sprintf "slo %s: quantile must be in (0, 1)" name)
        else if max_s <= 0.0 || not (Float.is_finite max_s) then
          Error (Printf.sprintf "slo %s: threshold_s must be positive" name)
        else finish (Latency { quantile; max_s }))
    | "rate" -> (
      match num "max_per_s" with
      | None -> Error (Printf.sprintf "slo %s: rate needs \"max_per_s\"" name)
      | Some max_per_s ->
        if max_per_s < 0.0 || not (Float.is_finite max_per_s) then
          Error (Printf.sprintf "slo %s: max_per_s must be nonnegative" name)
        else finish (Rate { max_per_s }))
    | "min_mean" -> (
      match num "min" with
      | None -> Error (Printf.sprintf "slo %s: min_mean needs \"min\"" name)
      | Some min_mean ->
        if not (Float.is_finite min_mean) then
          Error (Printf.sprintf "slo %s: min must be finite" name)
        else finish (Min_mean { min_mean }))
    | k -> Error (Printf.sprintf "slo %s: unknown kind %S (latency|rate|min_mean)" name k))

let specs_of_json j =
  match Option.bind (Json.member "slos" j) Json.to_list_opt with
  | None -> Error "slo file: expected {\"slos\": [...]}"
  | Some entries ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
        match spec_of_json e with
        | Ok sp -> go (sp :: acc) rest
        | Error _ as err -> err)
    in
    if entries = [] then Error "slo file: \"slos\" is empty" else go [] entries

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.of_string text with
    | exception Json.Parse_error msg -> Error (path ^ ": " ^ msg)
    | j -> specs_of_json j)

(* [latest] is [Array.fold_left Float.max 0.0 clocks], kept up to date
   by every write so that [now] reads one field. Clocks only move
   forward between resets, so each write can only raise it. *)
type t = { clocks : float array; mutable latest : float }

let create ~connections =
  if connections <= 0 then invalid_arg "Pool.create: connections must be positive";
  { clocks = Array.make connections 0.0; latest = 0.0 }

let connections t = Array.length t.clocks

let least_loaded t =
  let best = ref 0 in
  Array.iteri (fun i c -> if c < t.clocks.(!best) then best := i) t.clocks;
  !best

let add_work t conn work =
  if not (work >= 0.0) then invalid_arg "Pool.add_work: work must be non-negative";
  let c = t.clocks.(conn) +. work in
  t.clocks.(conn) <- c;
  if c > t.latest then t.latest <- c

let now t = t.latest

let barrier t work =
  let m = t.latest +. work in
  Array.fill t.clocks 0 (Array.length t.clocks) m;
  t.latest <- Float.max 0.0 m

let advance_to t time =
  Array.iteri (fun i c -> if c < time then t.clocks.(i) <- time) t.clocks;
  if time > t.latest then t.latest <- time

let reset t =
  Array.fill t.clocks 0 (Array.length t.clocks) 0.0;
  t.latest <- 0.0

let loads t = Array.copy t.clocks

(* The ledger's five workloads: which transaction stream each one
   offers, at what run frequency, on how many domains.

   Every workload runs in the travel world of the evaluation (500
   users, 12 cities, 100 connections). The whole stream is generated
   before the clock starts; the ledger then offers it in arrival blocks
   of [frequency] and calls one run per block (see ledger.ml). *)

open Ent_core
open Ent_workload

(* the world size the [si] stream's user ids are drawn from *)
let users = Si_stream.world_users
let cities = 12
let connections = 100

type item = {
  program : Program.t;
  tracked : bool;
      (* counted in latency, throughput and the failure ratio; the
         partnerless stragglers of [pending] are not: they must stay
         dormant for the whole run *)
  inserts : bool;  (* books one Reserve row when it commits *)
}

type t = {
  name : string;
  txns : int;  (* tracked transactions at --scale 1 *)
  frequency : int;
  domains : int;
  wal : bool;
  stream : Travel.t -> n:int -> item list;
}

let item ~tracked (program : Program.t) =
  let inserts =
    List.exists
      (function Ent_sql.Ast.Insert _, _ -> true | _ -> false)
      program.ast.body
  in
  { program; tracked; inserts }

let batch kind world ~n =
  List.map (item ~tracked:true)
    (Gen.batch world ~transactional:true kind ~n ~tag_base:0)

(* The parked workload's stream is the [si] experiment's own: Social-T
   writers, plus entangled readers that scan Reserve (a table-S lock
   under 2PL) and park until their partner arrives in the next block
   of arrivals. [Si_stream] is built from bench/main.ml (see dune); the
   [`Mixed] retagging runs every second program under snapshot
   isolation and the rest under Strict 2PL. *)
let parked world ~n =
  List.map (item ~tracked:true)
    (Si_stream.retag_isolation `Mixed (Si_stream.si_stream world ~frequency:100 ~n))

(* Figure 6(b)'s pending transactions: partnerless entangled queries
   that every run re-executes and re-aborts. *)
let stragglers = 100

(* Sizes give repetitions of 0.3 to 0.9 s on a 2-vCPU VM, so a
   twenty-second measurement holds twenty or more of them. *)
let all =
  [
    {
      name = "nosocial";
      txns = 10_000;
      frequency = 100;
      domains = 1;
      wal = true;
      stream = batch Gen.No_social;
    };
    {
      name = "entangled";
      txns = 1_000;
      frequency = 100;
      domains = 1;
      wal = false;
      stream = batch Gen.Entangled;
    };
    {
      name = "pending";
      txns = 500;
      frequency = 10;
      domains = 1;
      wal = false;
      stream =
        (fun world ~n ->
          List.map (item ~tracked:false)
            (Gen.lonely world ~n:stragglers ~tag_base:1_000_000)
          @ batch Gen.Entangled world ~n);
    };
    {
      name = "parked";
      txns = 1_000;
      frequency = 100;
      domains = 1;
      wal = false;
      stream = parked;
    };
    {
      name = "entangled-d2";
      txns = 1_000;
      frequency = 100;
      domains = 2;
      wal = false;
      stream = batch Gen.Entangled;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

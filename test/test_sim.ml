(* Unit tests for the simulation substrate (cost model, connection
   pool) and the entanglement-group union-find. *)

open Ent_sim

let test_cost_scale () =
  let c = Cost.scale 2.0 Cost.default in
  Alcotest.(check (float 1e-12)) "stmt doubled" (2.0 *. Cost.default.c_stmt) c.c_stmt;
  Alcotest.(check (float 1e-12)) "commit doubled" (2.0 *. Cost.default.c_commit) c.c_commit

let test_pool_basics () =
  let p = Pool.create ~connections:3 in
  Alcotest.(check int) "connections" 3 (Pool.connections p);
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Pool.now p);
  Pool.add_work p 0 5.0;
  Pool.add_work p 1 3.0;
  Alcotest.(check (float 0.0)) "now = max" 5.0 (Pool.now p);
  Alcotest.(check int) "least loaded is idle conn" 2 (Pool.least_loaded p);
  Pool.add_work p 2 4.0;
  Alcotest.(check int) "then the lighter one" 1 (Pool.least_loaded p)

let test_pool_barrier () =
  let p = Pool.create ~connections:2 in
  Pool.add_work p 0 2.0;
  Pool.barrier p 1.0;
  let loads = Pool.loads p in
  Alcotest.(check (float 0.0)) "conn 0 synced" 3.0 loads.(0);
  Alcotest.(check (float 0.0)) "conn 1 synced" 3.0 loads.(1)

let test_pool_advance_and_reset () =
  let p = Pool.create ~connections:2 in
  Pool.add_work p 0 2.0;
  Pool.advance_to p 5.0;
  Alcotest.(check (float 0.0)) "advanced" 5.0 (Pool.now p);
  Pool.advance_to p 1.0;
  Alcotest.(check (float 0.0)) "never goes back" 5.0 (Pool.now p);
  Pool.reset p;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Pool.now p)

let test_pool_rejects_zero_connections () =
  try
    ignore (Pool.create ~connections:0);
    Alcotest.fail "zero connections accepted"
  with Invalid_argument _ -> ()

let test_pool_rejects_bad_work () =
  let p = Pool.create ~connections:2 in
  List.iter
    (fun work ->
      match Pool.add_work p 0 work with
      | () -> Alcotest.failf "work %h accepted" work
      | exception Invalid_argument _ -> ())
    [ -1.0; -0.5e-300; Float.nan ];
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Pool.loads p).(0)

(* [now] is kept as a running maximum; it must stay bit-equal to the
   maximum recomputed over every clock. *)
type pool_op =
  | Add of int * float
  | Barrier of float
  | Advance of float
  | Reset

let pool_op_to_string = function
  | Add (c, w) -> Printf.sprintf "add %d %h" c w
  | Barrier w -> Printf.sprintf "barrier %h" w
  | Advance t -> Printf.sprintf "advance %h" t
  | Reset -> "reset"

let prop_pool_now_is_max =
  let connections = 4 in
  let op =
    QCheck2.Gen.(
      frequency
        [ ( 6,
            map2
              (fun c w -> Add (c, w))
              (int_range 0 (connections - 1))
              (oneof [ float_range 0.0 5.0; return 0.0; return (-0.0) ]) );
          (1, map (fun w -> Barrier w) (float_range 0.0 2.0));
          (2, map (fun t -> Advance t) (float_range (-1.0) 20.0));
          (1, return Reset) ])
  in
  QCheck2.Test.make ~name:"now is the maximum clock, bit for bit" ~count:500
    ~print:QCheck2.Print.(list pool_op_to_string)
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
      let p = Pool.create ~connections in
      List.for_all
        (fun op ->
          (match op with
          | Add (c, w) -> Pool.add_work p c w
          | Barrier w -> Pool.barrier p w
          | Advance t -> Pool.advance_to p t
          | Reset -> Pool.reset p);
          Int64.equal
            (Int64.bits_of_float (Pool.now p))
            (Int64.bits_of_float (Array.fold_left Float.max 0.0 (Pool.loads p))))
        ops)

(* --- Group --- *)

let test_group_union () =
  let g = Ent_core.Group.create () in
  Alcotest.(check (list int)) "singleton" [ 7 ] (Ent_core.Group.members g 7);
  Alcotest.(check bool) "not entangled" false (Ent_core.Group.entangled g 7);
  Ent_core.Group.join g [ 1; 2 ];
  Ent_core.Group.join g [ 2; 3 ];
  Alcotest.(check (list int)) "transitive" [ 1; 2; 3 ] (Ent_core.Group.members g 1);
  Alcotest.(check bool) "same group" true (Ent_core.Group.same_group g 1 3);
  Alcotest.(check bool) "entangled" true (Ent_core.Group.entangled g 2);
  Ent_core.Group.join g [ 4; 5 ];
  Alcotest.(check bool) "disjoint groups" false (Ent_core.Group.same_group g 1 4);
  Ent_core.Group.reset g;
  Alcotest.(check (list int)) "reset" [ 1 ] (Ent_core.Group.members g 1)

let prop_group_members_symmetric =
  QCheck2.Test.make ~name:"group membership is symmetric and transitive"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 9) (int_range 0 9)))
    (fun joins ->
      let g = Ent_core.Group.create () in
      List.iter (fun (a, b) -> Ent_core.Group.join g [ a; b ]) joins;
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              Ent_core.Group.same_group g x y
              = List.mem x (Ent_core.Group.members g y))
            (List.init 10 Fun.id))
        (List.init 10 Fun.id))

let () =
  Alcotest.run "sim"
    [ ( "cost", [ Alcotest.test_case "scale" `Quick test_cost_scale ] );
      ( "pool",
        [ Alcotest.test_case "basics" `Quick test_pool_basics;
          Alcotest.test_case "barrier" `Quick test_pool_barrier;
          Alcotest.test_case "advance/reset" `Quick test_pool_advance_and_reset;
          Alcotest.test_case "zero connections" `Quick test_pool_rejects_zero_connections;
          Alcotest.test_case "bad work" `Quick test_pool_rejects_bad_work;
          Gen.to_alcotest prop_pool_now_is_max ] );
      ( "group",
        [ Alcotest.test_case "union-find" `Quick test_group_union;
          Gen.to_alcotest prop_group_members_symmetric ] ) ]

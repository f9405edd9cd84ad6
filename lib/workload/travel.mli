(** The travel-scenario world of the evaluation (§5.2.1 / Appendix D):
    a social network of users with hometowns, a complete flight network
    between cities, and a reservations table. *)

type t = {
  manager : Ent_core.Manager.t;
  graph : Social_graph.t;
  cities : string array;
  shapes : Ent_sql.Parser.Shapes.t option;
      (** the statement-shape table every program {!Gen} builds for
          this world is parsed through; [None] parses each text in full *)
}

(** [build ()] creates a fresh world.
    - [users]: social-network size (default 500)
    - [cities]: number of cities (default 12); one flight exists
      between every ordered pair
    - [edges_per_node]: average out-degree of the friendship graph
    - [config]: scheduler configuration
    - [wal]: log for recovery (default false — benchmarks don't pay
      for logging, matching the prototype's reliance on the DBMS) *)
val build :
  ?seed:int ->
  ?users:int ->
  ?cities:int ->
  ?edges_per_node:int ->
  ?config:Ent_core.Scheduler.config ->
  ?wal:bool ->
  unit ->
  t

(** City of a user (deterministic). *)
val hometown : t -> int -> string

(** A destination city different from the user's hometown
    (deterministic in [salt]). *)
val destination_for : t -> int -> salt:int -> string

(** Number of committed reservations. *)
val reservations : t -> int

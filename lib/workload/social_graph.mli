(** Social graphs for the evaluation workloads.

    The paper uses the SNAP Slashdot0902 social network. That file is
    not available in the sealed build environment, so the default is a
    synthetic preferential-attachment graph with the properties the
    workload actually consumes: reciprocated friend edges and a
    heavy-tailed degree distribution (see DESIGN.md §2.2). A loader for
    the SNAP edge-list format is provided for users who have the data. *)

type t

(** [generate ~seed ~users ~edges_per_node] builds a deterministic
    preferential-attachment graph. Edges are reciprocated. It runs in
    O(E log d) for E edges and degree d, and the graph depends on the
    arguments alone, not on [OCAMLRUNPARAM]'s randomized hash tables. *)
val generate : ?seed:int -> users:int -> edges_per_node:int -> unit -> t

(** Parse SNAP edge-list text ([#] comments, one [from<TAB>to] pair per
    line). Node ids are remapped densely in order of first appearance;
    edges are reciprocated, and self-loops and repeated pairs (in
    either direction) are dropped, in O(E log d). *)
val parse_edges : string -> t

(** Read a SNAP edge-list file. *)
val load_edges : string -> t

val users : t -> int
val friends : t -> int -> int list
val degree : t -> int -> int

(** [nth_friend t u k] picks friend [k] modulo [u]'s degree, also for a
    negative [k] ([None]: no friends). *)
val nth_friend : t -> int -> int -> int option

(** Total number of (directed) friendship pairs. *)
val edge_count : t -> int

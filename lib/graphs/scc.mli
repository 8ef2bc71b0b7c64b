(** Strongly connected components (Tarjan's algorithm, iterative).

    Used by the alldifferent propagator: after a maximum matching is found,
    edges within one SCC of the residual value graph belong to some maximum
    matching and must not be pruned (Régin 1994). The propagator runs at
    every search node, so the core ({!tarjan_csr}) works on a compressed
    adjacency and caller-owned buffers and allocates nothing. *)

type workspace
(** Scratch buffers for graphs of up to a fixed number of nodes. *)

val workspace : int -> workspace
(** [workspace capacity] serves every graph with at most [capacity]
    nodes. *)

val tarjan_csr :
  workspace -> n:int -> first:int array -> adj:int array -> comp:int array -> int
(** [tarjan_csr w ~n ~first ~adj ~comp] labels the graph on nodes
    [0 .. n-1] whose successors of [v] are
    [adj.(first.(v)) .. adj.(first.(v+1) - 1)] (so [first] has at least
    [n+1] entries). It writes each node's component index into
    [comp.(0 .. n-1)] and returns the number of components; indices are
    dense in \[0, k) and numbered in completion order. Allocates nothing.
    Raises [Invalid_argument] if [n] exceeds the workspace's capacity. *)

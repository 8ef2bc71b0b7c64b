(** Optimal 1-D k-means by dynamic programming.

    Sect. 6.3 of the paper clusters link costs with k-means before handing
    them to the solvers: "Since the link costs are in one dimension, such
    k-means can be optimally solved in O(kN) time using dynamic programming".
    We implement the interval DP, exact, with each of its k rows filled by
    divide and conquer over the split index (O(k·N log N), N = number of
    distinct values — 1560 on a 40-instance matrix). The result is
    bit-identical to the plain O(k·N²) scan, which the test suite keeps
    as its oracle. *)

type result = {
  centers : float array;    (** cluster means, ascending *)
  boundaries : float array; (** ascending distinct input values at cluster starts *)
  cost : float;             (** total within-cluster sum of squared error *)
}

val cluster : k:int -> float array -> result
(** [cluster ~k xs] optimally partitions the multiset [xs] into at most [k]
    contiguous clusters (in value order), minimizing within-cluster squared
    error. If [xs] has fewer than [k] distinct values, each distinct value
    becomes its own cluster. Raises [Invalid_argument] if [k <= 0], [xs]
    is empty, or [xs] contains a non-finite value (NaN/±inf would silently
    corrupt the DP tables). *)

val assign : result -> float -> float
(** [assign r x] maps [x] to its cluster's mean (the rounding the paper
    applies to all link costs before solving). *)

val assign_index : result -> float -> int
(** Index of the cluster [x] falls into (nearest center). *)

val distinct_count : float array -> int
(** Number of distinct values, a convenience for choosing [k] sweeps. *)

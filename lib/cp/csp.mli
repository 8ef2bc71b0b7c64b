(** Finite-domain constraint satisfaction problems.

    The model matches the paper's CP encoding of the longest-link node
    deployment problem (Sect. 4.2):

    - one integer variable [u_i] per application node, ranging over
      instances (values [0 .. nvalues-1]);
    - one global [alldifferent] over all variables (injective deployment);
    - binary "forbidden pair" constraints
      [(u_i, u_i') <> (j, j')] for every communication edge [(i, i')] and
      every instance pair with link cost above the threshold [c].

    Propagation is AC for the binary constraints (bitset support tests) and
    Régin's matching-based filtering for [alldifferent]. *)

type t
(** A CSP instance: mutable domains plus a fixed set of propagators. *)

type propagation = Progress | Fixpoint | Failure

val create : nvars:int -> nvalues:int -> t
(** Fresh problem with every variable ranging over all values. Requires
    [0 < nvars <= nvalues] (injective problems only). *)

val nvars : t -> int
val nvalues : t -> int

val domain : t -> int -> Domain.t
(** The live domain of a variable (mutating it directly is allowed before
    search starts; during search use the solver's branching). *)

val restrict : t -> var:int -> allowed:(int -> bool) -> unit
(** Remove from [var]'s domain every value failing [allowed] — used for
    root-level compatibility filtering (degree labeling). *)

val add_alldifferent : t -> unit
(** Add the global injectivity constraint over all variables. *)

val add_forbidden_pairs : t -> x:int -> y:int -> bad:Domain.t array -> unit
(** [add_forbidden_pairs t ~x ~y ~bad] forbids simultaneous assignment
    [x = j ∧ y ∈ bad.(j)]. [bad] has one entry per value [j] of [x]; each
    entry is a set over the value universe. The transposed direction is
    derived internally, so a single call gives arc consistency both ways.
    The [bad] array is shared, not copied: callers may reuse one matrix
    across many edge constraints (the paper's encoding does — the forbidden
    set depends only on the link-cost threshold). *)

val propagate : t -> propagation
(** Run all propagators to fixpoint. [Failure] means some domain emptied.

    The schedule is event-driven: only the constraints on variables whose
    domain differs from the last fixpoint run, whoever changed it (the
    search, {!restore}, or a direct write through {!domain}), and the
    binary constraints drain before [alldifferent] runs. Every propagator
    is monotone, so the fixpoint, the domains it leaves and the returned
    status are those of running every propagator round-robin; only the
    work differs. The alldifferent propagator is incremental: it keeps the
    last maximum matching inside [t], revalidates it against the live
    domains, and re-augments only the variables that lost their match —
    the filtered edge set is matching-invariant, so prunings are identical
    to a from-scratch run. A propagation allocates nothing. *)

val forbidden_runs : t -> int
(** Forbidden-pair propagator runs so far, over the life of [t]. *)

val alldiff_runs : t -> int
(** Alldifferent propagator runs so far, over the life of [t]. *)

val reset : t -> unit
(** Refill every domain to the full value range and drop all binary
    (forbidden-pair) constraints, keeping [alldifferent] and its warm
    matching state. This is what lets a threshold-iterating solver reuse
    one CSP across iterations instead of rebuilding it: after [reset],
    re-apply the root restrictions and post the new iteration's forbidden
    matrices. *)

val save : t -> Domain.t array
(** Snapshot all domains (for search backtracking). *)

val restore : t -> Domain.t array -> unit
(** Restore a snapshot taken by {!save}. *)

val assignment : t -> int array option
(** If every domain is a singleton, the assignment; otherwise [None]. *)

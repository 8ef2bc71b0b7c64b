(** Branch-and-bound mixed-integer programming.

    Minimizes a {!Model} objective with the declared integrality enforced.
    Depth-first search over LP relaxations solved by the sparse revised
    simplex, each child warm-started from its parent's basis; branching on
    the most fractional integer variable; time and node limits; an
    incumbent callback for recording convergence traces (the paper's
    Figs. 7, 9, 15 plot best-solution-so-far against wall-clock time). *)

type outcome =
  | Mip_optimal of float * float array
      (** proven optimal objective and solution *)
  | Mip_feasible of float * float array
      (** best incumbent when a limit stopped the search *)
  | Mip_infeasible
  | Mip_unbounded

type stats = {
  nodes_explored : int;
  nodes_pruned : int;
      (** subtrees cut by the incumbent bound — before solving their LP
          (bound-dominated pops) or right after (relaxation no better than
          the incumbent); the search-effort-saved quantity of Fig. 7 *)
  elapsed_seconds : float;
  proven_optimal : bool;
}

val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  ?on_incumbent:(obj:float -> solution:float array -> elapsed:float -> unit) ->
  ?initial_incumbent:float * float array ->
  Model.t ->
  outcome * stats
(** [solve m] runs branch and bound. [time_limit] is in seconds (default
    none); [node_limit] caps explored nodes (default none); [should_stop]
    is polled once per node — and, with [time_limit], every 32 simplex
    pivots inside each LP solve, so one large relaxation cannot overrun
    the budget — and aborts the search like a hit time limit
    (cooperative cancellation for solver portfolios);
    [on_incumbent] fires every time a strictly better integer-feasible
    solution is found; [initial_incumbent] seeds the search with a known
    feasible objective/solution (the paper bootstraps its solvers with the
    best of 10 random deployments). Integrality tolerance is [1e-6].
    Exploration is depth-first, diving first into the branch the LP
    rounds to: the deployment encodings' relaxations are weak, so finding
    incumbents early matters more than minimizing nodes. *)

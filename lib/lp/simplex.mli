(** Two-phase primal simplex on the dense tableau: the reference oracle.

    Solves  minimize cᵀx  subject to  Ax {≤,=,≥} b,  x ≥ 0.

    No production path calls {!solve}: every {!Model} relaxation and
    {!Mip} node runs on the sparse revised simplex ({!Sparse}). This
    kernel stays because it is small and textbook — phase 1 minimizes the
    sum of artificial variables to find a basic feasible solution, phase 2
    minimizes the true objective, pricing is Dantzig with an automatic
    switch to Bland's rule after an iteration threshold (termination under
    degeneracy) — which makes it the independent answer the tests, the
    [micro] benchmark and the fig-scale bit-match compare {!Sparse}
    against. The module also owns the types and exceptions the LP layer
    shares ({!relation}, {!status}, {!Aborted}, {!Too_large}). *)

type relation = Le | Ge | Eq

type status =
  | Optimal of float * float array  (** objective value and primal solution *)
  | Infeasible
  | Unbounded

exception Aborted
(** Raised out of {!solve} when [should_stop] returns [true] — or when the
    [max_iters] pivot budget is exhausted: the tableau is abandoned
    mid-solve with no usable status. Cooperative cancellation for callers
    racing the solver against a wall-clock budget; exhausting the pivot
    budget is the same contract (a budget hit, not an internal error), so
    MIP callers degrade to their incumbent instead of crashing. *)

exception Too_large
(** Raised by {!solve} before any allocation when the dense tableau would
    exceed {!max_tableau_cells} — past that size a pivot costs tens of
    Mflop and building the tableau alone takes gigabytes, so the solve
    could never finish within a realistic budget. {!Model} raises it too,
    past the sparse kernel's row cap. *)

val max_tableau_cells : int
(** The refusal threshold, in tableau cells (rows × columns). *)

val solve :
  ?max_iters:int ->
  ?should_stop:(unit -> bool) ->
  objective:float array ->
  rows:(float array * relation * float) list ->
  unit ->
  status
(** [solve ~objective ~rows ()] minimizes [objective]·x over x ≥ 0 subject
    to [rows], each [(coeffs, rel, rhs)] with [coeffs] of the same length as
    [objective]. [max_iters] (default [50_000]) bounds total pivots across
    both phases; exceeding it raises {!Aborted} (a budget hit, handled like
    a cooperative stop). The Dantzig→Bland anti-cycling switch triggers
    after [max_iters / 2] pivots {e of the current phase} — per phase, not
    cumulative, so a long phase 1 cannot force phase 2 into pure Bland
    pricing. [should_stop] is polled every 32 pivots; when it returns
    [true], {!Aborted} is raised — without it a single large LP can overrun
    any caller-side time limit, which is only checked between solves.
    Raises [Invalid_argument] on dimension mismatches. *)

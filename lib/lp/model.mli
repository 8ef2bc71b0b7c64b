(** LP/MIP model builder.

    A thin, typed layer over the sparse revised simplex ({!Sparse}):
    declare variables (optionally integer, with bounds), add linear
    constraints, set a minimization objective, and solve the LP
    relaxation. The {!Mip} module adds branch-and-bound on top. *)

type t
(** A mutable model under construction. *)

type var = private int
(** Variable handle, valid only for the model that created it. *)

val create : unit -> t

val add_var : t -> ?integer:bool -> ?lb:float -> ?ub:float -> ?obj:float -> string -> var
(** [add_var m name] declares a variable. Defaults: continuous, [lb = 0.],
    [ub = infinity], objective coefficient [0.]. Requires [0. <= lb <= ub]
    (the simplex kernel works on non-negative variables; general lower
    bounds are not needed by the deployment encodings). *)

val add_constraint : t -> (var * float) list -> Simplex.relation -> float -> unit
(** [add_constraint m terms rel rhs] adds [Σ coeff·var rel rhs]. Terms with
    repeated variables are summed. *)

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val var_count : t -> int
val constraint_count : t -> int
val var_name : t -> var -> string
val is_integer : t -> var -> bool
val integer_vars : t -> var list

val solve_relaxation :
  ?should_stop:(unit -> bool) ->
  ?extra:(var * Simplex.relation * float) list ->
  t ->
  Simplex.status
(** Solve the LP relaxation (integrality dropped), with optional additional
    single-variable bound rows [var rel rhs] — the branching constraints
    used by {!Mip}. Finite upper bounds declared on variables are
    materialized as rows. [should_stop] is forwarded to the simplex kernel,
    which raises {!Simplex.Aborted} when it fires mid-solve. Equivalent to
    [fst (solve_relaxation_basis ...)]. *)

val solve_relaxation_basis :
  ?should_stop:(unit -> bool) ->
  ?extra:(var * Simplex.relation * float) list ->
  ?warm_basis:int array ->
  t ->
  Simplex.status * int array
(** Like {!solve_relaxation}, but also returns the final basis of the
    {!Sparse} solve as stable column labels. That basis can be passed back
    as [warm_basis] for a re-solve of this model extended with more
    [extra] rows (each new branch prepended to [extra], as {!Mip} does).
    Raises {!Simplex.Too_large} when the materialized rows (constraints,
    bound rows and [extra]) exceed the sparse kernel's row cap of
    500 000. *)

val value : float array -> var -> float
(** Read a variable out of a solution vector returned by the solver. *)

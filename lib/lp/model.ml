type var = int

type var_info = {
  name : string;
  integer : bool;
  lb : float;
  ub : float;
  mutable obj : float;
}

type t = {
  mutable vars : var_info list; (* reversed *)
  mutable nvars : int;
  mutable rows : (var array * float array * Simplex.relation * float) list; (* reversed *)
  mutable nrows : int;
}

let create () = { vars = []; nvars = 0; rows = []; nrows = 0 }

let add_var t ?(integer = false) ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) name =
  if lb < 0.0 then invalid_arg "Model.add_var: lb must be >= 0 (see interface)";
  if ub < lb then invalid_arg "Model.add_var: ub < lb";
  let v = t.nvars in
  t.vars <- { name; integer; lb; ub; obj } :: t.vars;
  t.nvars <- t.nvars + 1;
  v

let var_array t = Array.of_list (List.rev t.vars)

let add_constraint t terms rel rhs =
  (* Sum repeated variables. *)
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= t.nvars then invalid_arg "Model.add_constraint: unknown variable";
      let cur = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (cur +. c))
    terms;
  let pairs = Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [] in
  (* Variable ids are distinct Hashtbl keys, so ordering by id alone
     reproduces the polymorphic order on the (id, coeff) pairs. *)
  let pairs = List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) pairs in
  let vars = Array.of_list (List.map fst pairs) in
  let coeffs = Array.of_list (List.map snd pairs) in
  t.rows <- (vars, coeffs, rel, rhs) :: t.rows;
  t.nrows <- t.nrows + 1

let set_obj t v c =
  if v < 0 || v >= t.nvars then invalid_arg "Model.set_obj: unknown variable";
  let info = List.nth t.vars (t.nvars - 1 - v) in
  info.obj <- c

let var_count t = t.nvars
let constraint_count t = t.nrows

let var_name t v = (var_array t).(v).name
let is_integer t v = (var_array t).(v).integer

let integer_vars t =
  let infos = var_array t in
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if infos.(v).integer then acc := v :: !acc
  done;
  !acc

(* The sparse kernel has limits: past a few hundred thousand rows the
   per-iteration dense work vectors and eta fill stop fitting any realistic
   budget, so refuse up front. *)
let max_sparse_rows = 500_000

let solve_relaxation_basis ?should_stop ?(extra = []) ?warm_basis t =
  let infos = var_array t in
  let objective = Array.map (fun i -> i.obj) infos in
  (* Row order must be stable under row *appends* so that a basis returned
     here stays meaningful for a model extending this one (the warm-start
     contract of {!Sparse}): base rows in insertion order, then bound rows
     in variable order, then [extra] oldest first — {!Mip} prepends each
     new branch, so the parent's extras are a list suffix and reversing
     makes them a positional prefix. *)
  let base = List.rev t.rows in
  let bound_rows = ref [] in
  for v = t.nvars - 1 downto 0 do
    let info = infos.(v) in
    if info.ub < infinity then
      bound_rows := ([| v |], [| 1.0 |], Simplex.Le, info.ub) :: !bound_rows;
    if info.lb > 0.0 then
      bound_rows := ([| v |], [| 1.0 |], Simplex.Ge, info.lb) :: !bound_rows
  done;
  let extra_rows = List.rev_map (fun (v, rel, rhs) -> ([| v |], [| 1.0 |], rel, rhs)) extra in
  let rows = base @ !bound_rows @ extra_rows in
  if List.length rows > max_sparse_rows then raise Simplex.Too_large;
  let res = Sparse.solve ?should_stop ?warm_basis ~objective ~rows () in
  (res.Sparse.status, res.Sparse.basis)

let solve_relaxation ?should_stop ?extra t =
  fst (solve_relaxation_basis ?should_stop ?extra t)

let value solution v = solution.(v)

open Lp

(* Tests for the simplex kernel and the branch-and-bound MIP solver. *)

let check_float name ?(tol = 1e-6) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ---------- Simplex ---------- *)

let solve_simplex objective rows = Simplex.solve ~objective ~rows ()

let test_simplex_basic_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig
     example, optimum 36 at (2, 6)); we minimize the negation. *)
  let rows =
    [
      ([| 1.0; 0.0 |], Simplex.Le, 4.0);
      ([| 0.0; 2.0 |], Simplex.Le, 12.0);
      ([| 3.0; 2.0 |], Simplex.Le, 18.0);
    ]
  in
  match solve_simplex [| -3.0; -5.0 |] rows with
  | Simplex.Optimal (obj, x) ->
      check_float "objective" (-36.0) obj;
      check_float "x" 2.0 x.(0);
      check_float "y" 6.0 x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  (* min x + y s.t. x + y = 5, x <= 3: optimum 5 (any split). *)
  let rows =
    [ ([| 1.0; 1.0 |], Simplex.Eq, 5.0); ([| 1.0; 0.0 |], Simplex.Le, 3.0) ]
  in
  match solve_simplex [| 1.0; 1.0 |] rows with
  | Simplex.Optimal (obj, x) ->
      check_float "objective" 5.0 obj;
      check_float "sum" 5.0 (x.(0) +. x.(1));
      Alcotest.(check bool) "x within bound" true (x.(0) <= 3.0 +. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_ge_constraints () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1: optimum at (4, 0) -> 8. *)
  let rows =
    [ ([| 1.0; 1.0 |], Simplex.Ge, 4.0); ([| 1.0; 0.0 |], Simplex.Ge, 1.0) ]
  in
  match solve_simplex [| 2.0; 3.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" 8.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let rows =
    [ ([| 1.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Ge, 2.0) ]
  in
  Alcotest.(check bool) "infeasible" true (solve_simplex [| 1.0 |] rows = Simplex.Infeasible)

let test_simplex_unbounded () =
  (* min -x s.t. x >= 0 (no upper bound): unbounded. *)
  let rows = [ ([| 1.0 |], Simplex.Ge, 0.0) ] in
  Alcotest.(check bool) "unbounded" true (solve_simplex [| -1.0 |] rows = Simplex.Unbounded)

let test_simplex_negative_rhs () =
  (* Row with negative rhs must be flipped correctly: x - y <= -2 means
     y >= x + 2. min y s.t. that and x >= 1 -> y = 3 at x = 1... but x is
     free to be 0, so optimum y = 2. *)
  let rows = [ ([| 1.0; -1.0 |], Simplex.Le, -2.0) ] in
  match solve_simplex [| 0.0; 1.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" 2.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* A degenerate LP that cycles under naive pivoting (Beale's example). *)
  let rows =
    [
      ([| 0.25; -60.0; -0.04; 9.0 |], Simplex.Le, 0.0);
      ([| 0.5; -90.0; -0.02; 3.0 |], Simplex.Le, 0.0);
      ([| 0.0; 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
    ]
  in
  match solve_simplex [| -0.75; 150.0; -0.02; 6.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" (-0.05) obj
  | _ -> Alcotest.fail "expected optimal (anti-cycling)"

let test_simplex_dimension_mismatch () =
  Alcotest.check_raises "row length" (Invalid_argument "Simplex.solve: row length mismatch")
    (fun () -> ignore (solve_simplex [| 1.0; 2.0 |] [ ([| 1.0 |], Simplex.Le, 1.0) ]))

(* ---------- Model ---------- *)

let test_model_relaxation () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-3.0) "x" in
  let y = Model.add_var m ~obj:(-5.0) "y" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Le 4.0;
  Model.add_constraint m [ (y, 2.0) ] Simplex.Le 12.0;
  Model.add_constraint m [ (x, 3.0); (y, 2.0) ] Simplex.Le 18.0;
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" (-36.0) obj;
      check_float "x" 2.0 (Model.value sol x);
      check_float "y" 6.0 (Model.value sol y)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check int) "var count" 2 (Model.var_count m);
  Alcotest.(check int) "constraint count" 3 (Model.constraint_count m);
  Alcotest.(check string) "name" "x" (Model.var_name m x)

let test_model_upper_bounds_materialized () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:2.5 ~obj:(-1.0) "x" in
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" (-2.5) obj;
      check_float "x at ub" 2.5 (Model.value sol x)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "not integer" false (Model.is_integer m x)

let test_model_lower_bound () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:1.5 ~obj:1.0 "x" in
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" 1.5 obj;
      check_float "x at lb" 1.5 (Model.value sol x)
  | _ -> Alcotest.fail "expected optimal")

let test_model_duplicate_terms_summed () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:1.0 "x" in
  (* x + x >= 4 means x >= 2. *)
  Model.add_constraint m [ (x, 1.0); (x, 1.0) ] Simplex.Ge 4.0;
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, _) -> check_float "objective" 2.0 obj
  | _ -> Alcotest.fail "expected optimal")

let test_model_extra_rows () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-1.0) ~ub:10.0 "x" in
  (match Model.solve_relaxation ~extra:[ (x, Simplex.Le, 3.0) ] m with
  | Simplex.Optimal (obj, _) -> check_float "extra bound respected" (-3.0) obj
  | _ -> Alcotest.fail "expected optimal")

(* ---------- Mip ---------- *)

let test_mip_knapsack () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary: optimum is a + c
     = 17 (b + c = 20: 4+2=6 fits! b=1, c=1 gives 20). *)
  let m = Model.create () in
  let a = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-10.0) "a" in
  let b = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-13.0) "b" in
  let c = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-7.0) "c" in
  Model.add_constraint m [ (a, 3.0); (b, 4.0); (c, 2.0) ] Simplex.Le 6.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), stats ->
      check_float "objective" (-20.0) obj;
      check_float "b chosen" 1.0 (Model.value sol b);
      check_float "c chosen" 1.0 (Model.value sol c);
      check_float "a not chosen" 0.0 (Model.value sol a);
      Alcotest.(check bool) "proved" true stats.Mip.proven_optimal
  | _ -> Alcotest.fail "expected optimal"

let test_mip_integer_rounding_matters () =
  (* max x s.t. 2x <= 5, x integer: LP gives 2.5, MIP must give 2. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~obj:(-1.0) "x" in
  Model.add_constraint m [ (x, 2.0) ] Simplex.Le 5.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, _), _ -> check_float "objective" (-2.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_mip_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 "x" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Ge 2.0;
  match Mip.solve m with
  | Mip.Mip_infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_mip_equality_assignment () =
  (* 2x2 assignment problem as a tiny MIP: min c00 x00 + ... with row and
     column sums = 1. Costs: [[1, 10]; [10, 1]] -> optimal 2 (diagonal). *)
  let m = Model.create () in
  let x = Array.init 2 (fun i -> Array.init 2 (fun j ->
      Model.add_var m ~integer:true ~ub:1.0 (Printf.sprintf "x%d%d" i j)))
  in
  let costs = [| [| 1.0; 10.0 |]; [| 10.0; 1.0 |] |] in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Model.set_obj m x.(i).(j) costs.(i).(j)
    done
  done;
  for i = 0 to 1 do
    Model.add_constraint m [ (x.(i).(0), 1.0); (x.(i).(1), 1.0) ] Simplex.Eq 1.0;
    Model.add_constraint m [ (x.(0).(i), 1.0); (x.(1).(i), 1.0) ] Simplex.Eq 1.0
  done;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), _ ->
      check_float "objective" 2.0 obj;
      check_float "diag" 1.0 (Model.value sol x.(0).(0));
      check_float "diag" 1.0 (Model.value sol x.(1).(1))
  | _ -> Alcotest.fail "expected optimal"

let test_mip_incumbent_callback_fires () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "x" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Le 1.0;
  let calls = ref 0 in
  let _ = Mip.solve ~on_incumbent:(fun ~obj:_ ~solution:_ ~elapsed:_ -> incr calls) m in
  Alcotest.(check bool) "callback fired" true (!calls >= 1)

let test_mip_initial_incumbent_prunes () =
  (* With an initial incumbent at the true optimum, the solver should still
     report the optimum (not something worse). *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "x" in
  let y = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Le 1.0;
  let seed = (-1.0, [| 1.0; 0.0 |]) in
  match Mip.solve ~initial_incumbent:seed m with
  | Mip.Mip_optimal (obj, _), _ -> check_float "objective" (-1.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_mip_node_limit_reports_feasible () =
  (* A slightly larger knapsack with a node limit of 1 should stop early;
     outcome must be Mip_feasible or Mip_optimal found at the root. *)
  let m = Model.create () in
  let vars =
    Array.init 8 (fun i ->
        Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.float_of_int (i + 1)) (Printf.sprintf "v%d" i))
  in
  Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 2.0)) vars)) Simplex.Le 7.0;
  match Mip.solve ~node_limit:1 m with
  | (Mip.Mip_feasible _ | Mip.Mip_optimal _ | Mip.Mip_infeasible), stats ->
      Alcotest.(check bool) "explored within limit" true (stats.Mip.nodes_explored <= 1)
  | Mip.Mip_unbounded, _ -> Alcotest.fail "not unbounded"

let test_mip_general_integer () =
  (* min 3x + 4y s.t. x + y >= 5, 2x + y >= 7, integers: LP optimum at
     (2, 3) -> 18 which is integral already. Perturb: x + 2y >= 7 too.
     Check the solver returns an integral optimum. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~obj:3.0 "x" in
  let y = Model.add_var m ~integer:true ~obj:4.0 "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Ge 5.0;
  Model.add_constraint m [ (x, 2.0); (y, 1.0) ] Simplex.Ge 7.0;
  Model.add_constraint m [ (x, 1.0); (y, 2.0) ] Simplex.Ge 7.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), _ ->
      let xv = Model.value sol x and yv = Model.value sol y in
      Alcotest.(check bool) "x integral" true (Float.abs (xv -. Float.round xv) < 1e-6);
      Alcotest.(check bool) "y integral" true (Float.abs (yv -. Float.round yv) < 1e-6);
      Alcotest.(check bool) "feasible" true (xv +. yv >= 5.0 -. 1e-6);
      check_float "objective" 17.0 obj
      (* (3,2): 3*3+4*2=17, check constraints: 5>=5, 8>=7, 7>=7. *)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_knapsack_matches_enumeration () =
  (* A 6-item 0/1 knapsack whose optimum is checked against all 2^6
     subsets: the proven MIP optimum must be the best feasible subset. *)
  let value i = float_of_int (7 - i) and weight i = float_of_int (i + 2) in
  let m = Model.create () in
  let vars =
    Array.init 6 (fun i ->
        Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.value i) (Printf.sprintf "v%d" i))
  in
  Model.add_constraint m
    (Array.to_list (Array.mapi (fun i v -> (v, weight i)) vars))
    Simplex.Le 11.0;
  let best = ref infinity in
  for mask = 0 to (1 lsl 6) - 1 do
    let w = ref 0.0 and obj = ref 0.0 in
    for i = 0 to 5 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w +. weight i;
        obj := !obj -. value i
      end
    done;
    if !w <= 11.0 then best := Float.min !best !obj
  done;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, _), stats ->
      check_float "enumerated optimum" !best obj;
      Alcotest.(check bool) "proved" true stats.Mip.proven_optimal
  | _ -> Alcotest.fail "expected optimal"

let test_mip_depth_first_finds_incumbent_fast () =
  (* Even with a node limit too small for a proof, depth-first should have
     produced an integer-feasible incumbent by diving. *)
  let m = Model.create () in
  let vars =
    Array.init 10 (fun i ->
        Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.(1.0 +. float_of_int (i mod 3)))
          (Printf.sprintf "v%d" i))
  in
  Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 2.0)) vars)) Simplex.Le 9.0;
  match Mip.solve ~node_limit:40 m with
  | (Mip.Mip_feasible _ | Mip.Mip_optimal _), _ -> ()
  | Mip.Mip_infeasible, _ -> Alcotest.fail "feasible problem"
  | Mip.Mip_unbounded, _ -> Alcotest.fail "bounded problem"

(* ---------- Sparse revised simplex ---------- *)

let sparse_rows rows =
  List.map
    (fun (coeffs, rel, rhs) ->
      let vars = ref [] and cfs = ref [] in
      Array.iteri
        (fun i c ->
          if c <> 0.0 then begin
            vars := i :: !vars;
            cfs := c :: !cfs
          end)
        coeffs;
      (Array.of_list (List.rev !vars), Array.of_list (List.rev !cfs), rel, rhs))
    rows

let solve_sparse objective rows = Sparse.solve ~objective ~rows:(sparse_rows rows) ()

(* Both kernels on the same fixture: statuses must match, optima must agree,
   and the sparse solution must satisfy the original rows. *)
let check_sparse_agrees name objective rows =
  let dense = solve_simplex objective rows in
  let sp = solve_sparse objective rows in
  match (dense, sp.Sparse.status) with
  | Simplex.Optimal (od, _), Simplex.Optimal (os, x) ->
      check_float (name ^ ": objective") ~tol:1e-7 od os;
      Alcotest.(check bool) (name ^ ": nonneg") true (Array.for_all (fun v -> v >= -1e-7) x);
      List.iter
        (fun (coeffs, rel, rhs) ->
          let lhs = ref 0.0 in
          Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
          let ok =
            match rel with
            | Simplex.Le -> !lhs <= rhs +. 1e-6
            | Simplex.Ge -> !lhs >= rhs -. 1e-6
            | Simplex.Eq -> Float.abs (!lhs -. rhs) <= 1e-6
          in
          Alcotest.(check bool) (name ^ ": sparse solution feasible") true ok)
        rows
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> ()
  | _ -> Alcotest.fail (name ^ ": kernel statuses disagree")

let test_sparse_matches_dense_textbook () =
  check_sparse_agrees "dantzig"
    [| -3.0; -5.0 |]
    [
      ([| 1.0; 0.0 |], Simplex.Le, 4.0);
      ([| 0.0; 2.0 |], Simplex.Le, 12.0);
      ([| 3.0; 2.0 |], Simplex.Le, 18.0);
    ];
  check_sparse_agrees "equality"
    [| 1.0; 1.0 |]
    [ ([| 1.0; 1.0 |], Simplex.Eq, 5.0); ([| 1.0; 0.0 |], Simplex.Le, 3.0) ];
  check_sparse_agrees "ge"
    [| 2.0; 3.0 |]
    [ ([| 1.0; 1.0 |], Simplex.Ge, 4.0); ([| 1.0; 0.0 |], Simplex.Ge, 1.0) ];
  check_sparse_agrees "negative rhs" [| 0.0; 1.0 |] [ ([| 1.0; -1.0 |], Simplex.Le, -2.0) ]

let test_sparse_degenerate_beale () =
  (* The cycling-prone fixture from test_simplex_degenerate: the sparse
     kernel's per-phase Bland switch must terminate it at the same optimum. *)
  check_sparse_agrees "beale"
    [| -0.75; 150.0; -0.02; 6.0 |]
    [
      ([| 0.25; -60.0; -0.04; 9.0 |], Simplex.Le, 0.0);
      ([| 0.5; -90.0; -0.02; 3.0 |], Simplex.Le, 0.0);
      ([| 0.0; 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
    ]

let test_sparse_statuses () =
  check_sparse_agrees "infeasible" [| 1.0 |]
    [ ([| 1.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Ge, 2.0) ];
  check_sparse_agrees "unbounded" [| -1.0 |] [ ([| 1.0 |], Simplex.Ge, 1.0) ]

let test_sparse_iteration_budget_aborts () =
  (* Budget exhaustion must surface as the typed Aborted, not a Failure. *)
  Alcotest.check_raises "sparse budget" Simplex.Aborted (fun () ->
      ignore
        (Sparse.solve ~max_iters:1 ~objective:[| -3.0; -5.0 |]
           ~rows:
             (sparse_rows
                [
                  ([| 1.0; 0.0 |], Simplex.Le, 4.0);
                  ([| 0.0; 2.0 |], Simplex.Le, 12.0);
                  ([| 3.0; 2.0 |], Simplex.Le, 18.0);
                ])
           ()))

let test_dense_iteration_budget_aborts () =
  Alcotest.check_raises "dense budget" Simplex.Aborted (fun () ->
      ignore
        (Simplex.solve ~max_iters:1 ~objective:[| -3.0; -5.0 |]
           ~rows:
             [
               ([| 1.0; 0.0 |], Simplex.Le, 4.0);
               ([| 0.0; 2.0 |], Simplex.Le, 12.0);
               ([| 3.0; 2.0 |], Simplex.Le, 18.0);
             ]
           ()))

let assignment_model ?(integer = false) n w =
  let m = Model.create () in
  let x =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Model.add_var m ~integer ~ub:1.0 ~obj:(w i j) (Printf.sprintf "a%d_%d" i j)))
  in
  for i = 0 to n - 1 do
    Model.add_constraint m (List.init n (fun j -> (x.(i).(j), 1.0))) Simplex.Eq 1.0
  done;
  for j = 0 to n - 1 do
    Model.add_constraint m (List.init n (fun i -> (x.(i).(j), 1.0))) Simplex.Le 1.0
  done;
  (m, x)

(* The rows {!assignment_model} hands the kernel, written out densely for
   the {!Simplex} oracle: row sums, column sums, then one [x <= 1] bound row
   per variable in variable order (variable [i*n + j] is [x.(i).(j)]). *)
let dense_assignment n w =
  let row cells =
    let r = Array.make (n * n) 0.0 in
    List.iter (fun (i, j) -> r.((i * n) + j) <- 1.0) cells;
    r
  in
  let objective = Array.init (n * n) (fun k -> w (k / n) (k mod n)) in
  let rows =
    List.init n (fun i -> (row (List.init n (fun j -> (i, j))), Simplex.Eq, 1.0))
    @ List.init n (fun j -> (row (List.init n (fun i -> (i, j))), Simplex.Le, 1.0))
    @ List.init (n * n) (fun k -> (row [ (k / n, k mod n) ], Simplex.Le, 1.0))
  in
  (objective, rows)

let optimum name = function
  | Simplex.Optimal (obj, _) -> obj
  | _ -> Alcotest.fail (name ^ ": expected optimal")

let test_sparse_dense_bit_identical () =
  (* Pure assignment LP with dyadic costs: both kernels pivot on ±1 entries
     and stay in exact dyadic arithmetic, so the model's optimum and the
     dense oracle's must be the same bit pattern, not merely close. This is
     the gate that caught a ratio-test bug in the sparse kernel's phase 1. *)
  let w i j = 0.25 *. float_of_int ((((i * 7) + (j * 3)) mod 4) + 1) in
  let m, _ = assignment_model 6 w in
  let objective, rows = dense_assignment 6 w in
  let dense = optimum "dense" (solve_simplex objective rows) in
  let model = optimum "model" (Model.solve_relaxation m) in
  let sparse = optimum "sparse" (solve_sparse objective rows).Sparse.status in
  Alcotest.(check int64) "model bits" (Int64.bits_of_float dense) (Int64.bits_of_float model);
  Alcotest.(check int64) "sparse bits" (Int64.bits_of_float dense) (Int64.bits_of_float sparse)

let test_sparse_warm_basis_matches_cold () =
  (* Branch-and-bound re-solve pattern: optimal basis of the parent, then the
     child adds a bound row. Warm and cold solves of the child must agree. *)
  let w i j = if i = j then 1.0 else 3.0 +. float_of_int ((i + (2 * j)) mod 3) in
  let m, x = assignment_model 4 w in
  let basis =
    match Model.solve_relaxation_basis m with
    | Simplex.Optimal _, b -> b
    | _ -> Alcotest.fail "parent: expected optimal with basis"
  in
  (* Force the first (diagonal, hence basic) variable out of the plan. *)
  let extra = [ (x.(0).(0), Simplex.Le, 0.0) ] in
  let warm =
    match fst (Model.solve_relaxation_basis ~extra ~warm_basis:basis m) with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "warm child: expected optimal"
  in
  let cold =
    match fst (Model.solve_relaxation_basis ~extra m) with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "cold child: expected optimal"
  in
  check_float "warm equals cold" ~tol:1e-9 cold warm

let test_sparse_warm_infeasible_branch () =
  (* A child whose branch row contradicts an upper bound: the warm dual
     repair (or its cold fallback) must prove infeasibility, not loop. *)
  let m = Model.create () in
  let x = Model.add_var m ~ub:3.0 ~obj:1.0 "x" in
  let y = Model.add_var m ~ub:3.0 ~obj:1.0 "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Ge 2.0;
  let basis =
    match Model.solve_relaxation_basis m with
    | Simplex.Optimal _, b -> b
    | _ -> Alcotest.fail "parent: expected optimal with basis"
  in
  let extra = [ (x, Simplex.Ge, 5.0) ] in
  match fst (Model.solve_relaxation_basis ~extra ~warm_basis:basis m) with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible child"

let test_mip_dense_oracle_equivalence () =
  (* Mip.solve and its root relaxation against the dense {!Simplex} oracle
     on densified rows of the same models. *)
  let m = Model.create () in
  let a = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-10.0) "a" in
  let b = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-13.0) "b" in
  let c = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-7.0) "c" in
  Model.add_constraint m [ (a, 3.0); (b, 4.0); (c, 2.0) ] Simplex.Le 6.0;
  let dense_root =
    solve_simplex [| -10.0; -13.0; -7.0 |]
      [
        ([| 3.0; 4.0; 2.0 |], Simplex.Le, 6.0);
        ([| 1.0; 0.0; 0.0 |], Simplex.Le, 1.0);
        ([| 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
        ([| 0.0; 0.0; 1.0 |], Simplex.Le, 1.0);
      ]
  in
  check_float "knapsack relaxation" ~tol:1e-9
    (optimum "dense root" dense_root)
    (optimum "model root" (Model.solve_relaxation m));
  (match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), stats ->
      check_float "knapsack objective" (-20.0) obj;
      check_float "b chosen" 1.0 (Model.value sol b);
      check_float "c chosen" 1.0 (Model.value sol c);
      Alcotest.(check bool) "proved" true stats.Mip.proven_optimal
  | _ -> Alcotest.fail "knapsack: expected optimal");
  (* The assignment polytope is integral, so the MIP optimum is the dense
     LP optimum. *)
  let w i j = if i = j then 1.0 else 10.0 in
  let m2, _ = assignment_model ~integer:true 3 w in
  let objective, rows = dense_assignment 3 w in
  match Mip.solve m2 with
  | Mip.Mip_optimal (obj, _), _ ->
      check_float "assignment vs dense oracle" ~tol:1e-9
        (optimum "dense" (solve_simplex objective rows))
        obj
  | _ -> Alcotest.fail "assignment: expected optimal"

let random_lp rng nvars nrows =
  let objective = Array.init nvars (fun _ -> Prng.float rng 10.0 -. 5.0) in
  let rows =
    List.init nrows (fun _ ->
        let coeffs = Array.init nvars (fun _ -> Prng.float rng 4.0 -. 2.0) in
        let rel = if Prng.bool rng then Simplex.Le else Simplex.Ge in
        (coeffs, rel, Prng.float rng 10.0 -. 2.0))
  in
  (objective, rows)

let qcheck_props =
  [
    QCheck.Test.make ~name:"simplex optimal solutions are feasible" ~count:150
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let nvars = 1 + Prng.int rng 4 and nrows = 1 + Prng.int rng 5 in
        let objective, rows = random_lp rng nvars nrows in
        match Simplex.solve ~objective ~rows () with
        | Simplex.Optimal (obj, x) ->
            (* Every constraint satisfied, all vars non-negative, and the
               reported objective matches the solution. *)
            Array.for_all (fun v -> v >= -1e-7) x
            && List.for_all
                 (fun (coeffs, rel, rhs) ->
                   let lhs = ref 0.0 in
                   Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
                   match rel with
                   | Simplex.Le -> !lhs <= rhs +. 1e-6
                   | Simplex.Ge -> !lhs >= rhs -. 1e-6
                   | Simplex.Eq -> Float.abs (!lhs -. rhs) <= 1e-6)
                 rows
            && Float.abs
                 (obj
                 -. Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x.(i)) objective))
               <= 1e-6
        | Simplex.Infeasible | Simplex.Unbounded -> true);
    QCheck.Test.make ~name:"sparse kernel agrees with dense" ~count:150
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let nvars = 1 + Prng.int rng 4 and nrows = 1 + Prng.int rng 5 in
        let objective, rows = random_lp rng nvars nrows in
        let sp = solve_sparse objective rows in
        match (Simplex.solve ~objective ~rows (), sp.Sparse.status) with
        | Simplex.Optimal (od, _), Simplex.Optimal (os, _) -> Float.abs (od -. os) <= 1e-5
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | Simplex.Unbounded, Simplex.Unbounded -> true
        | _ -> false);
    QCheck.Test.make ~name:"MIP solutions are integral and feasible" ~count:60
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let m = Model.create () in
        let nvars = 2 + Prng.int rng 3 in
        let vars =
          Array.init nvars (fun i ->
              Model.add_var m ~integer:true ~ub:3.0
                ~obj:(Prng.float rng 4.0 -. 2.0)
                (Printf.sprintf "v%d" i))
        in
        let weights = Array.map (fun v -> (v, Prng.float rng 3.0)) vars in
        let cap = 1.0 +. Prng.float rng 6.0 in
        Model.add_constraint m (Array.to_list weights) Simplex.Le cap;
        match Mip.solve ~time_limit:5.0 m with
        | Mip.Mip_optimal (_, sol), _ | Mip.Mip_feasible (_, sol), _ ->
            Array.for_all
              (fun v ->
                let x = Model.value sol v in
                Float.abs (x -. Float.round x) <= 1e-6 && x >= -1e-7 && x <= 3.0 +. 1e-6)
              vars
        | Mip.Mip_infeasible, _ -> false (* x = 0 is always feasible *)
        | Mip.Mip_unbounded, _ -> false);
    QCheck.Test.make ~name:"MIP optimum >= LP relaxation bound" ~count:50
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let m = Model.create () in
        let n = 3 + Prng.int rng 3 in
        let vars =
          Array.init n (fun i ->
              Model.add_var m ~integer:true ~ub:1.0
                ~obj:(-.(1.0 +. Prng.float rng 9.0))
                (Printf.sprintf "v%d" i))
        in
        let weights = Array.map (fun v -> (v, 1.0 +. Prng.float rng 4.0)) vars in
        let cap = 2.0 +. Prng.float rng 8.0 in
        Model.add_constraint m (Array.to_list weights) Simplex.Le cap;
        let lp_bound =
          match Model.solve_relaxation m with
          | Simplex.Optimal (b, _) -> b
          | _ -> QCheck.assume_fail ()
        in
        match Mip.solve m with
        | Mip.Mip_optimal (obj, _), _ -> obj >= lp_bound -. 1e-6
        | Mip.Mip_infeasible, _ -> false
        | _ -> true);
  ]

let suite =
  [
    Alcotest.test_case "simplex basic max" `Quick test_simplex_basic_max;
    Alcotest.test_case "simplex equality" `Quick test_simplex_equality;
    Alcotest.test_case "simplex >= constraints" `Quick test_simplex_ge_constraints;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
    Alcotest.test_case "simplex degenerate (Beale)" `Quick test_simplex_degenerate;
    Alcotest.test_case "simplex dimension mismatch" `Quick test_simplex_dimension_mismatch;
    Alcotest.test_case "model relaxation" `Quick test_model_relaxation;
    Alcotest.test_case "model upper bounds" `Quick test_model_upper_bounds_materialized;
    Alcotest.test_case "model lower bound" `Quick test_model_lower_bound;
    Alcotest.test_case "model duplicate terms" `Quick test_model_duplicate_terms_summed;
    Alcotest.test_case "model extra rows" `Quick test_model_extra_rows;
    Alcotest.test_case "mip knapsack" `Quick test_mip_knapsack;
    Alcotest.test_case "mip integer rounding" `Quick test_mip_integer_rounding_matters;
    Alcotest.test_case "mip infeasible" `Quick test_mip_infeasible;
    Alcotest.test_case "mip assignment" `Quick test_mip_equality_assignment;
    Alcotest.test_case "mip incumbent callback" `Quick test_mip_incumbent_callback_fires;
    Alcotest.test_case "mip initial incumbent" `Quick test_mip_initial_incumbent_prunes;
    Alcotest.test_case "mip node limit" `Quick test_mip_node_limit_reports_feasible;
    Alcotest.test_case "mip general integer" `Quick test_mip_general_integer;
    Alcotest.test_case "mip knapsack matches enumeration" `Quick
      test_mip_knapsack_matches_enumeration;
    Alcotest.test_case "mip depth-first incumbent" `Quick test_mip_depth_first_finds_incumbent_fast;
    Alcotest.test_case "sparse matches dense textbook" `Quick test_sparse_matches_dense_textbook;
    Alcotest.test_case "sparse degenerate (Beale)" `Quick test_sparse_degenerate_beale;
    Alcotest.test_case "sparse statuses" `Quick test_sparse_statuses;
    Alcotest.test_case "sparse iteration budget aborts" `Quick test_sparse_iteration_budget_aborts;
    Alcotest.test_case "dense iteration budget aborts" `Quick test_dense_iteration_budget_aborts;
    Alcotest.test_case "sparse/dense bit-identical" `Quick test_sparse_dense_bit_identical;
    Alcotest.test_case "sparse warm basis" `Quick test_sparse_warm_basis_matches_cold;
    Alcotest.test_case "sparse warm infeasible branch" `Quick test_sparse_warm_infeasible_branch;
    Alcotest.test_case "mip dense-oracle equivalence" `Quick test_mip_dense_oracle_equivalence;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props

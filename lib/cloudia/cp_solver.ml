type options = {
  clusters : int option;
  time_limit : float;
  iteration_time_limit : float option;
  use_labeling : bool;
  bootstrap_trials : int;
  symmetry_breaking : bool;
}

let default_options =
  {
    clusters = Some 20;
    time_limit = 60.0;
    iteration_time_limit = None;
    use_labeling = true;
    bootstrap_trials = 10;
    symmetry_breaking = true;
  }

type result = {
  plan : Types.plan;
  cost : float;
  trace : (float * float) list;
  iterations : int;
  nodes : int;
  failures : int;
  propagations : int;
  proven_optimal : bool;
}

let c_adoptions = Obs.Counter.make "portfolio.incumbent_adoptions"
let c_iterations = Obs.Counter.make "cp_solver.threshold_iterations"

(* The threshold graph Gc as a Digraph over instances (uniform-weight
   case, for compatibility labeling). *)
let threshold_graph rounded c =
  let m = Lat_matrix.dim rounded in
  let edges = ref [] in
  for j = 0 to m - 1 do
    for j' = 0 to m - 1 do
      if j <> j' && Lat_matrix.unsafe_get rounded j j' <= c then edges := (j, j') :: !edges
    done
  done;
  Graphs.Digraph.create ~n:m !edges

(* Forbidden-value matrix at link-cost threshold: bad.(j) = values j' such
   that the rounded cost j -> j' exceeds the threshold. *)
let forbidden_matrix rounded threshold =
  let m = Lat_matrix.dim rounded in
  Array.init m (fun j ->
      let row = Cp.Domain.empty m in
      for j' = 0 to m - 1 do
        if j <> j' && Lat_matrix.unsafe_get rounded j j' > threshold then Cp.Domain.add row j'
      done;
      row)

(* Weighted longest link over an arbitrary cost matrix. *)
let weighted_ll edges weight costs plan =
  Array.fold_left
    (fun acc (i, i') ->
      Float.max acc (weight i i' *. Lat_matrix.unsafe_get costs plan.(i) plan.(i')))
    0.0 edges

(* Static value-ordering heuristic: try instances with cheap average
   connectivity first. Sorting candidate values by the mean of their
   incident rounded costs steers the first descents toward deployments
   that survive lower thresholds, without affecting completeness. *)
let connectivity_badness rounded =
  let m = Lat_matrix.dim rounded in
  Array.init m (fun j ->
      let acc = ref 0.0 in
      for j' = 0 to m - 1 do
        if j <> j' then
          acc :=
            !acc +. Lat_matrix.unsafe_get rounded j j' +. Lat_matrix.unsafe_get rounded j' j
      done;
      !acc /. float_of_int (2 * (m - 1)))

(* Instance-interchangeability classes over the TRUE cost matrix: two
   instances are classmates iff swapping them leaves the matrix invariant
   (identical rows and columns outside the pair, symmetric within the
   pair). Exact float equality on the raw measurements means noisy real
   traces essentially never produce classes — solves on measured matrices
   are byte-identical with or without symmetry breaking — while synthetic
   rack-structured topologies (the paper's §4 observation: same rack/pod ⇒
   identical cost row) collapse each rack into one class. Classes are
   pairwise verified against every member already admitted (the swap
   relation is not transitive in general), so any two classmates really
   are swappable. True-row equality implies rounded-row equality (the
   clustering rounds entries pointwise), so classes computed here stay
   valid for the rounded CSP the dives actually solve. *)
let interchange_classes lat =
  let m = Lat_matrix.dim lat in
  let get j k = Lat_matrix.unsafe_get lat j k in
  let swappable j j' =
    get j j' = get j' j
    && get j j = get j' j'
    &&
    let ok = ref true in
    for k = 0 to m - 1 do
      if k <> j && k <> j' then
        if get j k <> get j' k || get k j <> get k j' then ok := false
    done;
    !ok
  in
  let classes = Array.make m (-1) in
  let n_classes = ref 0 in
  let members = ref [] in
  for j = 0 to m - 1 do
    if classes.(j) = -1 then begin
      members := [ j ];
      for j' = j + 1 to m - 1 do
        if classes.(j') = -1 && List.for_all (fun k -> swappable k j') !members then begin
          if classes.(j) = -1 then begin
            classes.(j) <- !n_classes;
            incr n_classes
          end;
          classes.(j') <- classes.(j);
          members := j' :: !members
        end
      done
    end
  done;
  (* Only multi-member classes ever received an id, so [n_classes = 0]
     means the matrix has no exploitable symmetry at all. *)
  (classes, !n_classes)

let check_warm_start ~n ~m plan =
  if Array.length plan <> n then
    invalid_arg
      (Printf.sprintf "Cp_solver.solve: warm start has %d nodes, expected %d"
         (Array.length plan) n);
  let seen = Array.make m false in
  Array.iter
    (fun j ->
      if j < 0 || j >= m then
        invalid_arg (Printf.sprintf "Cp_solver.solve: warm start instance %d outside [0, %d)" j m);
      if seen.(j) then
        invalid_arg (Printf.sprintf "Cp_solver.solve: warm start reuses instance %d" j);
      seen.(j) <- true)
    plan

let solve ?(options = default_options) ?clustering ?warm_start ?edge_weight
    ?(order_values = true) ?max_iterations ?node_limit ?(stop = fun () -> false) ?peek
    ?on_incumbent rng (t : Types.problem) =
  Obs.Resource.with_ "cp_solver.solve" @@ fun () ->
  let obs_stream = Obs.Incumbent.stream "cp" in
  let start = Obs.Clock.now_s () in
  let elapsed () = Obs.Clock.now_s () -. start in
  let n = Types.node_count t and m = Types.instance_count t in
  let edges = Graphs.Digraph.edges t.Types.graph in
  let weight = match edge_weight with Some w -> w | None -> fun _ _ -> 1.0 in
  Array.iter
    (fun (i, i') ->
      if weight i i' <= 0.0 then invalid_arg "Cp_solver.solve: edge weights must be positive")
    edges;
  let uniform_weights =
    Array.for_all (fun (i, i') -> weight i i' = 1.0) edges
  in
  let clustering =
    (* A caller-supplied clustering (the serving cache's fingerprint hit)
       skips the k-means recomputation; it must have been built from this
       problem's cost matrix. *)
    match clustering with
    | Some c ->
        if Lat_matrix.dim c.Clustering.rounded <> m then
          invalid_arg
            (Printf.sprintf "Cp_solver.solve: clustering is %dx%d, expected %dx%d"
               (Lat_matrix.dim c.Clustering.rounded)
               (Lat_matrix.dim c.Clustering.rounded)
               m m);
        c
    | None -> (
        match options.clusters with
        | Some k -> Clustering.cluster ~k t.Types.lat
        | None -> Clustering.none t.Types.lat)
  in
  let rounded = clustering.Clustering.rounded in
  (* Candidate objective values: every (edge weight × cost level). With
     uniform weights this is exactly the paper's iteration over cost
     levels; with weights it generalizes the scheme — the deployment cost
     always equals some w·level, so iterating these values preserves
     completeness. *)
  let objective_levels =
    let weights =
      Array.to_list edges |> List.map (fun (i, i') -> weight i i') |> List.sort_uniq Float.compare
    in
    Array.to_list clustering.Clustering.levels
    |> List.concat_map (fun level -> List.map (fun w -> w *. level) weights)
    |> List.sort_uniq Float.compare
  in
  let thresholds_below cost = List.filter (fun v -> v < cost) objective_levels |> List.rev in
  let rounded_eval plan = weighted_ll edges weight rounded plan in
  let true_eval plan = weighted_ll edges weight t.Types.lat plan in
  let publish plan =
    let cost = true_eval plan in
    ignore (Obs.Incumbent.observe obs_stream cost : bool);
    match on_incumbent with Some f -> f plan cost | None -> ()
  in
  let incumbent =
    ref (Random_search.best_of_eval rng ~eval:rounded_eval t (max 1 options.bootstrap_trials))
  in
  (* A warm start (the previous incumbent for this fingerprint) competes
     with the bootstrap draw under the rounded objective; the bootstrap
     still consumes the same random draws, so the cold path is
     byte-identical whether or not a warm start is offered. *)
  (match warm_start with
  | Some plan when n > 0 ->
      check_warm_start ~n ~m plan;
      if rounded_eval plan < rounded_eval !incumbent then incumbent := Array.copy plan
  | _ -> ());
  let trace = ref [ (elapsed (), true_eval !incumbent) ] in
  publish !incumbent;
  let iterations = ref 0 in
  let nodes = ref 0 and failures = ref 0 and propagations = ref 0 in
  let proven = ref false in
  let iteration_cap_hit () =
    match max_iterations with Some cap -> !iterations >= cap | None -> false
  in
  (* Portfolio mode: adopt a better incumbent found by another worker, so
     the next feasibility threshold starts below it. Adopted plans enter
     the trace (the incumbent did improve) but are not re-published. *)
  let adopt_external () =
    match peek with
    | None -> ()
    | Some f -> (
        match f () with
        | Some plan when rounded_eval plan < rounded_eval !incumbent ->
            incumbent := Array.copy plan;
            Obs.Counter.incr c_adoptions;
            ignore (Obs.Incumbent.observe obs_stream (true_eval !incumbent) : bool);
            trace := (elapsed (), true_eval !incumbent) :: !trace
        | _ -> ())
  in
  if n = 0 then
    {
      plan = [||];
      cost = 0.0;
      trace = [];
      iterations = 0;
      nodes = 0;
      failures = 0;
      propagations = 0;
      proven_optimal = true;
    }
  else begin
    let continue = ref true in
    (* Value-interchangeability classes feed the search's symmetric-value
       dedup. Computed once per solve — they depend only on the cost
       matrix, not on thresholds. *)
    let value_classes =
      if options.symmetry_breaking then begin
        let classes, n_classes = interchange_classes t.Types.lat in
        if n_classes > 0 then Some classes else None
      end
      else None
    in
    (* The value order depends only on the rounded matrix, so its m² sweep
       runs once per solve too. *)
    let value_order =
      if order_values then begin
        let badness = connectivity_badness rounded in
        fun ~var:_ values -> List.sort (fun a b -> Float.compare badness.(a) badness.(b)) values
      end
      else fun ~var:_ values -> values
    in
    (* One CSP for the whole threshold iteration: {!Cp.Csp.reset} refills
       the domains and drops the previous threshold's forbidden matrices
       while keeping the alldifferent propagator and its warm matching
       state, so later (tighter) iterations skip both the allocation and
       the from-scratch matching of a rebuild. *)
    let csp = Cp.Csp.create ~nvars:n ~nvalues:m in
    Cp.Csp.add_alldifferent csp;
    let remaining_nodes () =
      match node_limit with Some l -> Some (l - !nodes) | None -> None
    in
    let node_budget_exhausted () =
      match remaining_nodes () with Some r -> r <= 0 | None -> false
    in
    while !continue do
      let remaining = options.time_limit -. elapsed () in
      if remaining <= 0.0 || stop () || iteration_cap_hit () || node_budget_exhausted ()
      then continue := false
      else begin
        adopt_external ();
        match thresholds_below (rounded_eval !incumbent) with
        | [] ->
            (* No cheaper objective level exists: the incumbent is optimal
               for the rounded instance. *)
            proven := true;
            continue := false
        | c :: _ ->
            incr iterations;
            Obs.Counter.incr c_iterations;
            Cp.Csp.reset csp;
            (* One forbidden matrix per distinct edge weight: the edge
               (i,i') allows pair (j,j') iff w·cost(j,j') <= c, i.e.
               cost(j,j') <= c / w. *)
            let by_weight = Hashtbl.create 4 in
            Array.iter
              (fun (i, i') ->
                let w = weight i i' in
                let bad =
                  match Hashtbl.find_opt by_weight w with
                  | Some bad -> bad
                  | None ->
                      let bad = forbidden_matrix rounded (c /. w) in
                      Hashtbl.add by_weight w bad;
                      bad
                in
                Cp.Csp.add_forbidden_pairs csp ~x:i ~y:i' ~bad)
              edges;
            (* Compatibility labeling is only sound when all edges see the
               same threshold graph. *)
            if options.use_labeling && uniform_weights then begin
              let target = threshold_graph rounded c in
              let compat =
                Graphs.Labeling.compatibility_matrix ~pattern:t.Types.graph ~target
              in
              for i = 0 to n - 1 do
                Cp.Csp.restrict csp ~var:i ~allowed:(fun j -> compat.(i).(j))
              done
            end;
            let iteration_budget =
              match options.iteration_time_limit with
              | Some l -> Float.min l remaining
              | None -> remaining
            in
            let outcome, (st : Cp.Search.stats) =
              Cp.Search.solve ~time_limit:iteration_budget
                ?node_limit:(remaining_nodes ()) ?value_classes ~should_stop:stop
                ~value_order csp
            in
            nodes := !nodes + st.Cp.Search.nodes;
            failures := !failures + st.Cp.Search.failures;
            propagations := !propagations + st.Cp.Search.propagations;
            (match outcome with
            | Cp.Search.Sat plan ->
                incumbent := plan;
                trace := (elapsed (), true_eval plan) :: !trace;
                publish plan
            | Cp.Search.Unsat ->
                proven := true;
                continue := false
            | Cp.Search.Timeout ->
                (* A cooperative stop also surfaces as Timeout; either way
                   the anytime contract is the same: keep the incumbent. *)
                continue := false)
      end
    done;
    {
      plan = !incumbent;
      cost = true_eval !incumbent;
      trace = List.rev !trace;
      iterations = !iterations;
      nodes = !nodes;
      failures = !failures;
      propagations = !propagations;
      proven_optimal = !proven;
    }
  end

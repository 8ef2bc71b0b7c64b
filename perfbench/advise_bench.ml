(* The two advise workloads: the paper's advise (allocate, measure,
   cluster, search, verify) run step by step at fixed effort over a fixed
   list of allocations.

   Every solver is capped by a count (CP nodes, MIP nodes, anneal moves,
   R1 trials), never by the clock, so for a given seed the plans, costs and
   effort counts are identical from run to run and wall time measures only
   speed. Time-raced strategies (R2, descent, the portfolio) are left out
   for that reason. *)

open Cloudia

type strategy = Cp | Mip | Anneal | R1 | G2

let strategy_name = function
  | Cp -> "cp"
  | Mip -> "mip"
  | Anneal -> "anneal"
  | R1 -> "r1"
  | G2 -> "g2"

type params = {
  graph : Graphs.Digraph.t;
  objective : Cost.objective;
  over_allocation : float;
  samples_per_pair : int;
  clusters : int option;  (** k-means levels handed to CP; [None] = no clustering *)
  roster : strategy list;
  cp_node_limit : int;
  mip_node_limit : int;
  anneal_moves : int;
  r1_trials : int;
  nominal_op_s : float;  (** one advise on the reference host, seconds *)
  min_ops : int;  (** shortest allocation list *)
}

let provider = Cloudsim.Provider.get Cloudsim.Provider.Ec2

(* The move cap, not the (generous) clock, ends every anneal. *)
let anneal_options p =
  { Anneal.default_options with max_moves = Some p.anneal_moves; time_limit = 600.0 }

(* --- one advise ------------------------------------------------------ *)

type outcome = {
  strategy : strategy;
  plan : Types.plan;
  reported : float option;  (** the cost the solver claims, if it reports one *)
  counts : (string * float) list;
}

let counter name delta = float_of_int (Option.value (List.assoc_opt name delta) ~default:0)

let run_strategy p ~traced ~op rng problem clustering strategy =
  let span name f = Util.words (fun () -> Spans.time traced ~op name f) in
  match strategy with
  | Cp ->
      let options = { Cp_solver.default_options with clusters = p.clusters; time_limit = 600.0 } in
      let r, w =
        span "cp_solver.solve" (fun () ->
            Cp_solver.solve ~options ?clustering ~node_limit:p.cp_node_limit rng problem)
      in
      {
        strategy;
        plan = r.Cp_solver.plan;
        reported = Some r.Cp_solver.cost;
        counts =
          [
            ("cp.nodes", float_of_int r.Cp_solver.nodes);
            ("cp_solver.iterations", float_of_int r.Cp_solver.iterations);
            ("cp.words", w);
          ];
      }
  | Mip ->
      let options =
        { Mip_solver.default_options with node_limit = Some p.mip_node_limit; time_limit = 600.0 }
      in
      let solve =
        match p.objective with
        | Cost.Longest_link -> Mip_solver.solve_longest_link
        | Cost.Longest_path -> Mip_solver.solve_longest_path
      in
      let before = Obs.Counter.snapshot () in
      let r, w = span "mip_solver.solve" (fun () -> solve ~options rng problem) in
      let delta = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
      {
        strategy;
        plan = r.Mip_solver.plan;
        reported = Some r.Mip_solver.cost;
        counts =
          ("lp.mip.nodes_explored", float_of_int r.Mip_solver.nodes_explored)
          :: ("lp.words", w)
          :: List.map
               (fun c -> (c, counter c delta))
               [
                 "lp.sparse.iterations";
                 "lp.sparse.refactorizations";
                 "lp.sparse.dual_pivots";
                 "lp.simplex.pivots";
               ];
      }
  | Anneal ->
      let r, w =
        span "anneal.solve" (fun () ->
            Anneal.solve_objective ~options:(anneal_options p) rng p.objective problem)
      in
      {
        strategy;
        plan = r.Anneal.plan;
        reported = Some r.Anneal.cost;
        counts =
          [
            ("anneal.moves_tried", float_of_int r.Anneal.moves_tried);
            ("anneal.moves_accepted", float_of_int r.Anneal.moves_accepted);
            ("anneal.words", w);
          ];
      }
  | R1 ->
      let (plan, cost), w =
        span "random_search.r1" (fun () ->
            Random_search.r1 rng p.objective problem ~trials:p.r1_trials)
      in
      {
        strategy;
        plan;
        reported = Some cost;
        counts = [ ("random_search.trials", float_of_int p.r1_trials); ("r1.words", w) ];
      }
  | G2 ->
      let plan, _ = span "greedy.g2" (fun () -> Greedy.g2 problem) in
      { strategy; plan; reported = None; counts = [] }

(* Every plan must be a valid injection and every reported cost must be
   reproduced bit for bit by Cost.eval. Returns each strategy's cost and
   the default (allocation-order) cost. *)
let verify p problem outcomes =
  let default_cost = Cost.eval p.objective problem (Types.identity_plan problem) in
  let costs =
    List.map
      (fun o ->
        (match Types.validate problem o.plan with
        | () -> ()
        | exception Invalid_argument m -> Util.fail "%s: invalid plan: %s" (strategy_name o.strategy) m);
        let cost = Cost.eval p.objective problem o.plan in
        Option.iter
          (fun c ->
            Util.check (Util.same_float c cost) "%s: reported cost %.17g, Cost.eval %.17g"
              (strategy_name o.strategy) c cost)
          o.reported;
        cost)
      outcomes
  in
  (costs, default_cost)

type advise = {
  wall_ms : float;
  improvements : float list;  (** per roster strategy *)
  best_improvement : float;  (** of the cheapest plan: the one an advise returns *)
  counts : (string * float) list;  (** every strategy's effort counts *)
  minor_words : float;
  major_collections : int;
  distinct_values : int;  (** off-diagonal cost values handed to clustering *)
  signature : string;  (** plans, costs and effort counts, for determinism *)
}

let distinct_values (problem : Types.problem) =
  let v = Lat_matrix.off_diagonal problem.Types.lat in
  Array.sort Float.compare v;
  let d = ref 0 in
  Array.iteri (fun i x -> if i = 0 || not (Float.equal x v.(i - 1)) then incr d) v;
  !d

(* Steps 1 and 2 of Advisor.run: allocate, then estimate the cost matrix
   with the same generator. Returns the generator state after measuring. *)
let measure ?(traced = false) ?(op = 0) p seed =
  let span name f = Spans.time traced ~op name f in
  let rng = Prng.create seed in
  let count = Gen.instances ~graph:p.graph ~over_allocation:p.over_allocation in
  let env = span "cloudsim.allocate" (fun () -> Cloudsim.Env.allocate rng provider ~count) in
  let problem =
    span "metrics.estimate" (fun () ->
        Types.of_matrix ~graph:p.graph
          (Metrics.estimate rng env Metrics.Mean ~samples_per_pair:p.samples_per_pair))
  in
  (rng, problem)

let advise p ~traced ~op seed =
  let span name f = Spans.time traced ~op name f in
  let gc0 = Gc.quick_stat () in
  let t0 = Util.now_ns () in
  let problem, outcomes, (costs, default_cost) =
    Spans.time ~root:true traced ~op "advise" (fun () ->
        let rng, problem = measure ~traced ~op p seed in
        let clustering =
          Option.map
            (fun k -> span "clustering.cluster" (fun () -> Clustering.cluster ~k problem.Types.lat))
            p.clusters
        in
        (* Each strategy starts from the generator state Advisor.run would
           hand it after measuring, as if it were the configured strategy. *)
        let outcomes =
          List.map (fun s -> run_strategy p ~traced ~op (Prng.copy rng) problem clustering s) p.roster
        in
        (problem, outcomes, span "verify" (fun () -> verify p problem outcomes)))
  in
  let wall_ms = Util.ms_since t0 in
  let gc1 = Gc.quick_stat () in
  let counts = List.concat_map (fun (o : outcome) -> o.counts) outcomes in
  let signature =
    String.concat ";"
      (List.map2
         (fun (o : outcome) c ->
           let effort k = int_of_float (Option.value (List.assoc_opt k o.counts) ~default:0.0) in
           Printf.sprintf "%s:%s:%Lx:%d:%d:%d:%d" (strategy_name o.strategy)
             (String.concat "," (Array.to_list (Array.map string_of_int o.plan)))
             (Int64.bits_of_float c) (effort "cp.nodes") (effort "lp.mip.nodes_explored")
             (effort "lp.sparse.iterations") (effort "anneal.moves_tried"))
         outcomes costs)
  in
  {
    wall_ms;
    improvements = List.map (fun c -> Cost.improvement ~default:default_cost ~optimized:c) costs;
    best_improvement =
      Cost.improvement ~default:default_cost ~optimized:(List.fold_left Float.min infinity costs);
    counts;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    distinct_values = (if p.clusters = None then 0 else distinct_values problem);
    signature;
  }

(* --- set-up: prove the step-by-step advise is the real advise path ---- *)

(* Advisor.run's plan and cost for a G2 and a move-capped anneal config
   must equal the step-by-step pipeline's on the same seed, so the
   per-layer split times the code Advisor.run executes. *)
let check_faithful p seed =
  let config strategy =
    {
      Advisor.graph = p.graph;
      objective = p.objective;
      metric = Metrics.Mean;
      over_allocation = p.over_allocation;
      samples_per_pair = p.samples_per_pair;
      strategy;
    }
  in
  let rng, problem = measure p seed in
  List.iter
    (fun (strategy, plan) ->
      let r = Advisor.run (Prng.create seed) provider (config strategy) in
      let name = Advisor.strategy_to_string strategy in
      Util.check (r.Advisor.plan = plan) "faithfulness: %s plan differs from Advisor.run" name;
      Util.check
        (Util.same_float r.Advisor.cost (Cost.eval p.objective problem plan))
        "faithfulness: %s cost differs from Advisor.run" name)
    [
      (Advisor.Greedy_g2, Greedy.g2 problem);
      ( Advisor.Anneal (anneal_options p),
        (Anneal.solve_objective ~options:(anneal_options p) (Prng.copy rng) p.objective problem)
          .Anneal.plan );
    ]

(* --- the workload ---------------------------------------------------- *)

(* One pass: every allocation of the list is a different input, which
   averages over how hard single allocations are to advise. Repeats are
   checked on twins instead (see [run]). *)
let passes = 1

let twin_every = 8

let list_size p ~seconds = Harness.list_size ~passes ~nominal_op_s:p.nominal_op_s ~min_ops:p.min_ops ~seconds

let run p ~seed ~seconds ~trace ~export =
  let n = list_size p ~seconds in
  (* Every [twin_every]-th allocation is advised a second time, untraced,
     right next to its first advise, and must repeat its plans, costs and
     effort. In a traced run the median of these paired ratios sizes the
     tracing overhead, and host drift between the two cancels. The twin
     goes first on every other such allocation, so neither order's warm-up
     biases the median. Twins are not timed into the metrics. *)
  let overhead = ref [] in
  let pass ~pass:_ seeds =
    let twin_ms = ref 0.0 in
    let t0 = Util.now_ns () in
    let advises =
      Array.mapi
        (fun i s ->
          let twinned = i mod twin_every = 0 in
          let twin () =
            let again, ms = Util.timed (fun () -> advise p ~traced:false ~op:i s) in
            twin_ms := !twin_ms +. ms;
            again
          in
          let twin_first = twinned && i / twin_every mod 2 = 1 in
          let before = if twin_first then Some (twin ()) else None in
          let a = advise p ~traced:trace ~op:i s in
          let again = if twinned && not twin_first then Some (twin ()) else before in
          Option.iter
            (fun again ->
              Util.check (String.equal again.signature a.signature)
                "determinism: allocation %d advised again differs from its first advise" i;
              overhead := ((a.wall_ms /. again.wall_ms) -. 1.0) :: !overhead)
            again;
          Printf.printf "  advise %d%s: %.1f ms, improvement %s %%\n%!" i
            (if trace then " (traced)" else "")
            a.wall_ms
            (String.concat " " (List.map (Printf.sprintf "%.2f") a.improvements));
          a)
        seeds
    in
    (advises, Util.ms_since t0 -. !twin_ms)
  in
  let h =
    Harness.run ~passes ~setups_per_round:8
      ~set_up:(fun () ->
        let seeds = Gen.allocation_seeds ~seed n in
        check_faithful p seeds.(0);
        seeds)
      ~release:ignore ~pass
      ~wall_ms:(fun a -> a.wall_ms)
      ~signature:(fun a -> a.signature)
  in
  let all = Array.to_list h.runs.(0).ops in
  let improvement = Util.mean (List.map (fun a -> a.best_improvement) all) in
  let per_advise f = Util.mean (List.map f all) in
  let count k = per_advise (fun a -> Option.value (List.assoc_opt k a.counts) ~default:0.0) in
  let total k = Printf.sprintf "%.0f" (count k *. float_of_int n) in
  let peak_rss = Util.peak_rss_mb "self" in
  let determinism =
    Harness.determinism h ~improvement
      (List.map
         (fun k -> (k, total k))
         [ "cp.nodes"; "lp.mip.nodes_explored"; "lp.sparse.iterations"; "anneal.moves_tried" ])
  in
  let layers =
    if not trace then []
    else begin
      let table = export () in
      let self = Spans.self_ms table in
      let layer_names =
        [
          "cloudsim.allocate"; "metrics.estimate"; "clustering.cluster"; "cp_solver.solve";
          "mip_solver.solve"; "anneal.solve"; "random_search.r1"; "greedy.g2"; "verify";
        ]
      in
      let layer_sum =
        Util.ratio
          (List.fold_left (fun s name -> s +. Spans.total_ms table name) 0.0 layer_names)
          (Spans.total_ms table "advise")
      in
      let cp_ms = self "cp_solver.solve" and mip_ms = self "mip_solver.solve" in
      let anneal_ms = self "anneal.solve" and r1_ms = self "random_search.r1" in
      let lp_iters = count "lp.sparse.iterations" +. count "lp.simplex.pivots" in
      [
        ("cloudsim.allocate_ms", self "cloudsim.allocate");
        ("metrics.estimate_ms", self "metrics.estimate");
        ("clustering.cluster_ms", self "clustering.cluster");
        ("clustering.distinct_values", per_advise (fun a -> float_of_int a.distinct_values));
        ("cp_solver.solve_ms", cp_ms);
        ("cp.nodes", count "cp.nodes");
        ("cp.us_per_node", Util.ratio (cp_ms *. 1000.0) (count "cp.nodes"));
        ("cp.words_per_node", Util.ratio (count "cp.words") (count "cp.nodes"));
        ("cp_solver.iterations", count "cp_solver.iterations");
        ("mip_solver.solve_ms", mip_ms);
        ("lp.mip.nodes_explored", count "lp.mip.nodes_explored");
        ("lp.mip.ms_per_node", Util.ratio mip_ms (count "lp.mip.nodes_explored"));
        ("lp.sparse.iterations", count "lp.sparse.iterations");
        ("lp.sparse.refactorizations", count "lp.sparse.refactorizations");
        ("lp.sparse.dual_pivots", count "lp.sparse.dual_pivots");
        ("lp.simplex.pivots", count "lp.simplex.pivots");
        ("lp.us_per_iteration", Util.ratio (mip_ms *. 1000.0) lp_iters);
        ("lp.words_per_iteration", Util.ratio (count "lp.words") lp_iters);
        ("anneal.solve_ms", anneal_ms);
        ("anneal.moves_tried", count "anneal.moves_tried");
        ("anneal.ns_per_move", Util.ratio (anneal_ms *. 1e6) (count "anneal.moves_tried"));
        ("anneal.words_per_move", Util.ratio (count "anneal.words") (count "anneal.moves_tried"));
        ("anneal.accept_frac", Util.ratio (count "anneal.moves_accepted") (count "anneal.moves_tried"));
        ("random_search.r1_ms", r1_ms);
        ("random_search.ns_per_trial", Util.ratio (r1_ms *. 1e6) (count "random_search.trials"));
        ("random_search.words_per_trial", Util.ratio (count "r1.words") (count "random_search.trials"));
        ("greedy.g2_ms", self "greedy.g2");
        ("verify_ms", self "verify");
        ("gc.minor_words", per_advise (fun a -> a.minor_words));
        ("gc.major_collections", per_advise (fun a -> float_of_int a.major_collections));
        ("layer_sum_frac", layer_sum);
        ("trace.overhead_frac", Util.median !overhead);
      ]
      @ Harness.latency_layers h
    end
  in
  let report =
    Harness.report h ~improvement
    @ List.mapi
        (fun k s ->
          ( "improvement_pct." ^ strategy_name s,
            Util.mean (List.map (fun a -> List.nth a.improvements k) all),
            "%" ))
        p.roster
    @ [ ("peak_rss_mb", peak_rss, "MB") ]
  in
  {
    Util.attempted = Harness.operations h;
    e2e = Harness.e2e h ~improvement ~peak_rss;
    layers;
    report;
    determinism;
  }

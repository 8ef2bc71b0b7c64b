(* The benchmark's workloads, each at full size and at a tiny smoke size
   that runs every check in a few seconds. perfbench/workloads.json says,
   for each, why it was chosen and which layers it loads or bypasses. *)

type t = Advise of Advise_bench.params | Serve of Serve_bench.params

let mesh_ll =
  {
    Advise_bench.graph = Graphs.Templates.mesh2d ~rows:6 ~cols:6;
    objective = Cloudia.Cost.Longest_link;
    over_allocation = 0.1;
    samples_per_pair = 10;
    clusters = Some 20;
    roster = [ Cp; Anneal; R1; G2 ];
    cp_node_limit = 1000;
    mip_node_limit = 0;
    anneal_moves = 100_000;
    r1_trials = 1000;
    nominal_op_s = 0.95;
    min_ops = 4;
  }

let tree_lp =
  {
    Advise_bench.graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:3;
    objective = Cloudia.Cost.Longest_path;
    over_allocation = 0.2;
    samples_per_pair = 10;
    clusters = None;
    roster = [ Mip; Anneal; R1; G2 ];
    cp_node_limit = 0;
    mip_node_limit = 2;
    anneal_moves = 100_000;
    (* Sized so R1 takes about a fifth of an advise. *)
    r1_trials = 45_000;
    nominal_op_s = 0.7;
    min_ops = 4;
  }

let mixed =
  {
    Serve_bench.graph = Graphs.Templates.mesh2d ~rows:8 ~cols:8;
    over_allocation = 0.1;
    samples_per_pair = 10;
    mix = { Gen.pool = 40; seeds_per_matrix = 3; matrix_zipf = 0.9; seed_zipf = 0.6; g2_share = 0.05 };
    anneal_moves = 40_000;
    (* Smaller than the pool, so the daemon evicts. *)
    cache_capacity = 16;
    queue_capacity = 64;
    deadline_s = 60.0;
    nominal_op_s = 0.024;
    min_ops = 20;
  }

(* Name, full size, smoke size. *)
let all =
  [
    ( "advise-mesh-ll",
      Advise mesh_ll,
      Advise
        {
          mesh_ll with
          cp_node_limit = 100;
          anneal_moves = 5000;
          r1_trials = 100;
          nominal_op_s = 100.0;
          min_ops = 2;
        } );
    ( "advise-tree-lp",
      Advise tree_lp,
      Advise
        {
          tree_lp with
          mip_node_limit = 1;
          anneal_moves = 5000;
          r1_trials = 500;
          nominal_op_s = 100.0;
          min_ops = 2;
        } );
    ( "serve-mixed",
      Serve mixed,
      Serve
        {
          mixed with
          mix = { mixed.mix with pool = 4 };
          cache_capacity = 2;
          anneal_moves = 2000;
          nominal_op_s = 100.0;
          min_ops = 30;
        } );
  ]

let names = List.map (fun (name, _, _) -> name) all

let find ~smoke name =
  List.find_map (fun (n, full, small) -> if String.equal n name then Some (if smoke then small else full) else None) all

(* Operations a run times: the list's size times the passes. *)
let attempted w ~seconds =
  match w with
  | Advise p -> Advise_bench.passes * Advise_bench.list_size p ~seconds
  | Serve p -> Serve_bench.passes * Serve_bench.list_size p ~seconds

(* Tests for the lint library: instance diagnostics over adversarial
   matrices / graphs / configs, and the diagnostic sort/JSON rendering.
   The source-tree rules live in the AST analyzer (test_analysis.ml). *)

let has_code code ds = List.exists (fun d -> d.Lint.Diagnostic.code = code) ds

let count_code code ds =
  List.length (List.filter (fun d -> d.Lint.Diagnostic.code = code) ds)

let find_code code ds = List.find (fun d -> d.Lint.Diagnostic.code = code) ds

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- matrix diagnostics ---------------- *)

let test_matrix_clean () =
  let costs = [| [| 0.0; 1.0; 2.0 |]; [| 1.0; 0.0; 1.5 |]; [| 2.0; 1.5; 0.0 |] |] in
  check_int "no diagnostics" 0 (List.length (Lint.Instance.check_matrix costs))

let test_matrix_nan_aggregated () =
  (* A fully-NaN off-diagonal matrix must yield one LAT002, not n². *)
  let n = 4 in
  let costs =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0.0 else Float.nan))
  in
  let ds = Lint.Instance.check_matrix costs in
  check_int "one LAT002" 1 (count_code "LAT002" ds);
  let d = find_code "LAT002" ds in
  check_bool "is error" true (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error)

let test_matrix_negative_and_diag () =
  let costs = [| [| 0.0; -1.0 |]; [| 1.0; 3.0 |] |] in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT003 negative" true (has_code "LAT003" ds);
  check_bool "LAT004 non-zero diagonal" true (has_code "LAT004" ds)

let test_matrix_not_square () =
  let costs = [| [| 0.0; 1.0 |]; [| 1.0 |] |] in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT001" true (has_code "LAT001" ds)

let test_matrix_asymmetry_warns () =
  (* 1.0 vs 100.0 is gross asymmetry; measured-RTT jitter is not. *)
  let gross = [| [| 0.0; 1.0 |]; [| 100.0; 0.0 |] |] in
  let mild = [| [| 0.0; 1.0 |]; [| 1.2; 0.0 |] |] in
  check_bool "gross asymmetry warns" true
    (has_code "LAT005" (Lint.Instance.check_matrix gross));
  check_bool "mild asymmetry tolerated" false
    (has_code "LAT005" (Lint.Instance.check_matrix mild));
  check_bool "tolerance 0 flags mild too" true
    (has_code "LAT005" (Lint.Instance.check_matrix ~asymmetry_tolerance:0.0 mild))

let test_matrix_triangle_info () =
  (* c(0,2) = 10 > c(0,1) + c(1,2) = 2: a triangle violation, info only. *)
  let costs =
    [| [| 0.0; 1.0; 10.0 |]; [| 1.0; 0.0; 1.0 |]; [| 10.0; 1.0; 0.0 |] |]
  in
  let ds = Lint.Instance.check_matrix costs in
  check_bool "LAT006 reported" true (has_code "LAT006" ds);
  check_bool "only info severity" true
    (List.for_all
       (fun d -> d.Lint.Diagnostic.severity = Lint.Diagnostic.Info)
       ds);
  (* Above the size cap the O(n³) scan is skipped. *)
  check_bool "scan skipped above cap" false
    (has_code "LAT006" (Lint.Instance.check_matrix ~max_triangle_n:2 costs))

(* ---------------- graph diagnostics ---------------- *)

let test_edges_adversarial () =
  let ds = Lint.Instance.check_edges ~n:3 [ (0, 0); (0, 7); (1, 2); (1, 2) ] in
  check_bool "GRF001 self-loop" true (has_code "GRF001" ds);
  check_bool "GRF002 out of range" true (has_code "GRF002" ds);
  check_bool "GRF003 duplicate" true (has_code "GRF003" ds)

let test_graph_cyclic_lpndp () =
  (* A 2x3 mesh is cyclic: fine for longest-link, fatal for longest-path. *)
  let g = Graphs.Templates.mesh2d ~rows:2 ~cols:3 in
  check_bool "GRF005 under LPNDP" true
    (has_code "GRF005" (Lint.Instance.check_graph ~requires_dag:true g));
  check_bool "no GRF005 under LLNDP" false
    (has_code "GRF005" (Lint.Instance.check_graph g));
  let dag = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2 in
  check_bool "DAG passes LPNDP" false
    (has_code "GRF005" (Lint.Instance.check_graph ~requires_dag:true dag))

let test_graph_oversized_template () =
  (* More application nodes than pool instances: no injection exists. *)
  let g = Graphs.Templates.mesh2d ~rows:4 ~cols:4 in
  let ds = Lint.Instance.check_graph ~pool:8 g in
  check_bool "GRF006" true (has_code "GRF006" ds);
  check_bool "pool = |V| fine" false
    (has_code "GRF006" (Lint.Instance.check_graph ~pool:16 g))

let test_graph_disconnected_and_isolated () =
  let g = Graphs.Digraph.create ~n:4 [ (0, 1) ] in
  let ds = Lint.Instance.check_graph g in
  check_bool "GRF004 disconnected" true (has_code "GRF004" ds);
  check_bool "GRF007 isolated" true (has_code "GRF007" ds)

let test_graph_empty () =
  let g = Graphs.Digraph.create ~n:3 [] in
  check_bool "GRF008" true (has_code "GRF008" (Lint.Instance.check_graph g))

(* ---------------- config diagnostics ---------------- *)

let test_config_checks () =
  let ds =
    Lint.Instance.check_config ~time_limit:(-1.0) ~domains:0 ~over_allocation:(-0.5)
      ~samples_per_pair:0 ()
  in
  check_bool "CFG001" true (has_code "CFG001" ds);
  check_bool "CFG002" true (has_code "CFG002" ds);
  check_bool "CFG004" true (has_code "CFG004" ds);
  check_bool "CFG005" true (has_code "CFG005" ds);
  let ds = Lint.Instance.check_config ~domains:9 ~pool:4 () in
  check_bool "CFG003 domains > pool" true (has_code "CFG003" ds);
  check_int "clean config" 0
    (List.length
       (Lint.Instance.check_config ~time_limit:1.0 ~domains:2 ~pool:4
          ~over_allocation:0.5 ~samples_per_pair:10 ()))

(* ---------------- diagnostic plumbing ---------------- *)

let test_check_raises_and_strict () =
  let info = Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"X1" ~context:"t" "i" in
  let warn = Lint.Diagnostic.make Lint.Diagnostic.Warning ~code:"X2" ~context:"t" "w" in
  let err = Lint.Diagnostic.make Lint.Diagnostic.Error ~code:"X3" ~context:"t" "e" in
  Lint.Diagnostic.check [ info; warn ];
  check_bool "error raises" true
    (match Lint.Diagnostic.check [ info; err ] with
    | exception Lint.Diagnostic.Failed _ -> true
    | () -> false);
  check_bool "strict promotes warnings" true
    (match Lint.Diagnostic.check ~strict:true [ warn ] with
    | exception Lint.Diagnostic.Failed _ -> true
    | () -> false);
  Lint.Diagnostic.check ~strict:true [ info ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_sort_and_json () =
  let info = Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"B1" ~context:"t" "i" in
  let err = Lint.Diagnostic.make Lint.Diagnostic.Error ~code:"A1" ~context:"t" "e" in
  (match Lint.Diagnostic.sort [ info; err ] with
  | first :: _ -> check_bool "errors sort first" true (first == err)
  | [] -> Alcotest.fail "sort dropped diagnostics");
  let json = Lint.Diagnostic.to_json [ err; info ] in
  check_bool "json has code" true
    (contains ~needle:{|"code": "A1"|} json || contains ~needle:{|"code":"A1"|} json);
  check_bool "json escapes quotes" true
    (contains ~needle:{|\"|}
       (Lint.Diagnostic.to_json
          [ Lint.Diagnostic.make Lint.Diagnostic.Info ~code:"Q" ~context:"c" {|say "hi"|} ]))

(* ---------------- hardened numeric entry points ---------------- *)

let test_kmeans_rejects_nan () =
  check_bool "kmeans rejects NaN" true
    (match Stats.Kmeans1d.cluster ~k:2 [| 1.0; Float.nan; 3.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_rejects_inf () =
  check_bool "metrics reject inf" true
    (match Cloudia.Metrics.of_samples Cloudia.Metrics.Mean [| 1.0; Float.infinity |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "matrix clean" `Quick test_matrix_clean;
    Alcotest.test_case "matrix nan aggregated" `Quick test_matrix_nan_aggregated;
    Alcotest.test_case "matrix negative + diag" `Quick test_matrix_negative_and_diag;
    Alcotest.test_case "matrix not square" `Quick test_matrix_not_square;
    Alcotest.test_case "matrix asymmetry" `Quick test_matrix_asymmetry_warns;
    Alcotest.test_case "matrix triangle info" `Quick test_matrix_triangle_info;
    Alcotest.test_case "edges adversarial" `Quick test_edges_adversarial;
    Alcotest.test_case "graph cyclic lpndp" `Quick test_graph_cyclic_lpndp;
    Alcotest.test_case "graph oversized template" `Quick test_graph_oversized_template;
    Alcotest.test_case "graph disconnected" `Quick test_graph_disconnected_and_isolated;
    Alcotest.test_case "graph empty" `Quick test_graph_empty;
    Alcotest.test_case "config checks" `Quick test_config_checks;
    Alcotest.test_case "check strictness" `Quick test_check_raises_and_strict;
    Alcotest.test_case "sort and json" `Quick test_sort_and_json;
    Alcotest.test_case "kmeans rejects nan" `Quick test_kmeans_rejects_nan;
    Alcotest.test_case "metrics reject inf" `Quick test_metrics_rejects_inf;
  ]

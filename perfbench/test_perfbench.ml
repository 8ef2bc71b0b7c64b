(* The benchmark's own helpers: the same seed must give the same inputs,
   and the order statistics must be the ones the report claims. *)

open Perfbench

let mix =
  { Gen.pool = 24; seeds_per_matrix = 6; matrix_zipf = 1.0; seed_zipf = 1.2; g2_share = 0.05 }

let test_quantile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 0.0)) "median" 3.0 (Util.median xs);
  Alcotest.(check (float 0.0)) "p0" 1.0 (Util.quantile xs 0.0);
  Alcotest.(check (float 0.0)) "p100" 5.0 (Util.quantile xs 1.0);
  Alcotest.(check (float 1e-12)) "interpolated p90" 4.6 (Util.quantile xs 0.9);
  Alcotest.(check (float 0.0)) "even-sized median" 2.5 (Util.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Util.median []);
  Alcotest.(check (float 0.0)) "input order is irrelevant" (Util.quantile xs 0.25)
    (Util.quantile (List.rev xs) 0.25)

let draws seed n =
  let sample = Gen.zipf_sampler 10 1.1 and rng = Prng.create seed in
  List.init n (fun _ -> sample rng)

let test_zipf () =
  Alcotest.(check (list int)) "same seed, same draws" (draws 7 500) (draws 7 500);
  Alcotest.(check bool) "another seed, other draws" false (draws 7 500 = draws 8 500);
  let d = draws 3 5000 in
  Alcotest.(check bool) "draws stay in range" true (List.for_all (fun x -> x >= 0 && x < 10) d);
  let freq k = List.length (List.filter (( = ) k) d) in
  Alcotest.(check bool) "rank 0 is the most popular" true (freq 0 > freq 1 && freq 1 > freq 9)

let test_job_list () =
  let a = Gen.job_list mix ~seed:11 400 and b = Gen.job_list mix ~seed:11 400 in
  Alcotest.(check (array string)) "same seed, same jobs" (Array.map Gen.job_id a)
    (Array.map Gen.job_id b);
  Alcotest.(check bool) "another seed, other jobs" false (a = Gen.job_list mix ~seed:12 400);
  Alcotest.(check bool) "a shorter list is a prefix" true
    (Gen.job_list mix ~seed:11 100 = Array.sub a 0 100);
  Alcotest.(check bool) "jobs stay in the pool" true
    (Array.for_all
       (fun (j : Gen.job) -> j.matrix < mix.pool && j.seed_ix < mix.seeds_per_matrix)
       a);
  Alcotest.(check bool) "some G2 jobs" true (Array.exists (fun (j : Gen.job) -> j.seed_ix < 0) a);
  Alcotest.(check (array int)) "allocation seeds repeat" (Gen.allocation_seeds ~seed:5 8)
    (Gen.allocation_seeds ~seed:5 8)

let test_work_size () =
  Alcotest.(check int) "seconds over nominal" 40 (Gen.work_size ~seconds:10.0 ~nominal_s:0.25 ~min_ops:1);
  Alcotest.(check int) "at least min_ops" 3 (Gen.work_size ~seconds:0.1 ~nominal_s:1.0 ~min_ops:3)

(* workloads.json describes exactly the workloads the code defines. *)
let test_about () =
  let about = Obs.Json.parse (In_channel.with_open_bin "workloads.json" In_channel.input_all) in
  let described =
    match Obs.Json.member "workloads" about with
    | Some (Obs.Json.Obj l) -> List.map fst l
    | _ -> Alcotest.fail "workloads.json has no workloads object"
  in
  Alcotest.(check (list string)) "same names" Workloads.names described

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "zipf sampler" `Quick test_zipf;
          Alcotest.test_case "job list" `Quick test_job_list;
          Alcotest.test_case "work size" `Quick test_work_size;
          Alcotest.test_case "workload descriptions" `Quick test_about;
        ] );
    ]

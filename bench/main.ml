(* Benchmark harness: regenerates every figure of the ClouDiA paper's
   evaluation (at the reduced scales documented in DESIGN.md §4 and
   EXPERIMENTS.md) plus the ablations and kernel microbenchmarks.

   Usage:
     dune exec bench/main.exe            # everything (several minutes)
     dune exec bench/main.exe -- fig6 fig14 micro   # selected sections
     dune exec bench/main.exe -- --smoke            # every section, tiny
                                                    # budgets, seconds total
     dune exec bench/main.exe -- --smoke --trace t.jsonl   # + telemetry
                                                           # trace (JSONL) *)

let registry : (string * string * (unit -> unit)) list =
  [
    ("fig1", "EC2 latency heterogeneity CDF", Fig_cloud.fig1);
    ("fig2", "EC2 mean latency stability", Fig_cloud.fig2);
    ("fig4", "measurement scheme accuracy", Fig_measure.fig4);
    ("fig5", "staged measurement convergence", Fig_measure.fig5);
    ("fig6", "CP convergence vs cost clusters", Fig_solver.fig6);
    ("fig7", "CP vs MIP for LLNDP", Fig_solver.fig7);
    ("fig8", "CP scalability", Fig_solver.fig8);
    ("fig9", "MIP convergence for LPNDP", Fig_solver.fig9);
    ("fig10", "cost metric correlation", Fig_e2e.fig10);
    ("fig11", "metric choice vs application performance", Fig_e2e.fig11);
    ("fig12", "overall effectiveness", Fig_e2e.fig12);
    ("fig13", "over-allocation sweep", Fig_e2e.fig13);
    ("fig14", "lightweight vs CP (LLNDP)", Fig_light.fig14);
    ("fig15", "lightweight vs MIP (LPNDP)", Fig_light.fig15);
    ("fig16", "IP distance approximation", Fig_measure.fig16);
    ("fig17", "hop count approximation", Fig_measure.fig17);
    ("fig18", "GCE latency heterogeneity CDF", Fig_cloud.fig18);
    ("fig19", "GCE mean latency stability", Fig_cloud.fig19);
    ("fig20", "Rackspace latency heterogeneity CDF", Fig_cloud.fig20);
    ("fig21", "Rackspace mean latency stability", Fig_cloud.fig21);
    ("ablation-clustering", "cost-cluster sweep", Fig_solver.ablation_clustering);
    ("ablation-propagation", "labeling on/off", Fig_solver.ablation_propagation);
    ("ablation-bootstrap", "bootstrap seed quality", Fig_solver.ablation_bootstrap);
    ("ablation-anneal", "annealing vs lightweight approaches", Fig_ext.ablation_anneal);
    ("ext-weighted", "weighted communication graphs", Fig_ext.ext_weighted);
    ("ext-bandwidth", "bottleneck-bandwidth criterion", Fig_ext.ext_bandwidth);
    ("ext-redeploy", "iterative re-deployment", Fig_ext.ext_redeploy);
    ("ext-overlap", "overlapped measurement and execution", Fig_ext.ext_overlap);
    ("ext-traffic", "traffic-assignment deadline workload", Fig_ext.ext_traffic);
    ("ablation-ks", "staged batching parameter sweep", Fig_ext.ablation_ks);
    ("ablation-value-order", "CP value ordering heuristic", Fig_ext.ablation_value_order);
    ("fig-portfolio", "parallel portfolio vs single strategies", Fig_portfolio.run);
    ("fig-delta", "incremental vs full cost evaluation", Fig_delta.run);
    ("fig-serve", "advising daemon: caches and throughput", Fig_serve.run);
    ("fig-fault", "measurement robustness under faults", Fig_fault.run);
    ("fig-scale", "solver scaling on the sparse LP kernel", Fig_scale.run);
    ("micro", "kernel microbenchmarks", Micro.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let trace_file = ref None in
  let rec parse = function
    | [] -> []
    | "--smoke" :: tl ->
        Util.smoke := true;
        parse tl
    | [ "--trace" ] ->
        prerr_endline "--trace needs a file argument";
        exit 2
    | "--trace" :: file :: tl ->
        trace_file := Some file;
        parse tl
    | a :: tl -> a :: parse tl
  in
  let requested = parse args in
  if !trace_file <> None then Obs.Sink.enable ();
  let selected =
    match requested with
    | [] -> registry
    | names ->
        List.iter
          (fun name ->
            if not (List.exists (fun (id, _, _) -> id = name) registry) then begin
              Printf.eprintf "unknown section %s; available:\n" name;
              List.iter (fun (id, d, _) -> Printf.eprintf "  %-22s %s\n" id d) registry;
              exit 2
            end)
          names;
        List.filter (fun (id, _, _) -> List.mem id names) registry
  in
  Printf.printf "ClouDiA evaluation reproduction (%d sections)\n" (List.length selected);
  let started = Unix.gettimeofday () in
  List.iter
    (fun (id, _, run) ->
      let t0 = Unix.gettimeofday () in
      let before = Obs.Counter.snapshot () in
      run ();
      Printf.printf "\n[section completed in %.1f s]\n" (Unix.gettimeofday () -. t0);
      Util.print_counter_deltas id
        (Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ())))
    selected;
  Printf.printf "\nAll sections completed in %.1f s.\n" (Unix.gettimeofday () -. started);
  Util.flush_metrics ();
  match !trace_file with
  | None -> ()
  | Some file ->
      let events = Obs.Sink.drain () in
      let dropped = Obs.Sink.dropped () in
      let run = { Obs.Export.seed = None; argv = args } in
      let hists =
        List.filter (fun (h : Obs.Histogram.snapshot) -> h.hist_count > 0)
          (Obs.Histogram.snapshot ())
      in
      Out_channel.with_open_text file (fun oc ->
          Obs.Export.jsonl ~run ~counters:(Obs.Counter.snapshot ())
            ~gauges:(Obs.Gauge.snapshot ()) ~hists oc events);
      Printf.printf "Trace written to %s (%d events%s).\n" file (List.length events)
        (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")

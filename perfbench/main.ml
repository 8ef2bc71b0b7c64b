(* Entry point of the repository benchmark; perfbench/run.py builds and
   drives it.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--smoke] --daemon CLI --state DIR --rev REV

   Run from the root of the source tree: the metric names and units are
   read from BENCHMARK.json.

   Prints a human-readable report, the run's provenance, the counts a
   seed must reproduce exactly, then as its last line one JSON record:
   operations attempted and failed, and every end-to-end metric or, with
   --trace 1, every per-layer metric (zero where the workload bypasses the
   layer). A failed output check, or counts that differ from an earlier
   run of the same seed and source, print the reason on stderr, a record
   with "correct": false, and exit 1. *)

module Json = Obs.Json
open Perfbench

(* Every metric a record carries, with its unit, as BENCHMARK.json
   declares them; a workload reports 0 for a layer it bypasses. *)
let declared key =
  let benchmark = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  match Json.member key benchmark with
  | Some (Json.Arr l) -> List.map (fun m -> (Json.str_field "name" m, Json.str_field "unit" m)) l
  | _ -> failwith ("BENCHMARK.json: " ^ key ^ " must be a list")

let metric_json units values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then failwith ("metric " ^ name ^ " is not in BENCHMARK.json"))
    values;
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name values) ~default:0.0 in
         if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
         (name, Json.Obj [ ("value", Json.of_float v); ("unit", Json.Str unit) ]))
       units)

let record ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.of_int attempted);
         ("failed", Json.of_int failed);
         ("metrics", metrics);
       ])

(* Host, compiler, build and source, stamped into every result and trace. *)
let provenance ~seed ~rev =
  let cpuinfo =
    try In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with Sys_error _ -> ""
  in
  let lines = String.split_on_char '\n' cpuinfo in
  let value l = String.trim (String.sub l (String.index l ':' + 1) (String.length l - String.index l ':' - 1)) in
  Json.Obj
    [
      ("nproc", Json.of_int (List.length (List.filter (String.starts_with ~prefix:"processor") lines)));
      ( "cpu_model",
        Json.Str
          (Option.value ~default:"unknown"
             (List.find_map
                (fun l -> if String.starts_with ~prefix:"model name" l then Some (value l) else None)
                lines)) );
      ("ocaml", Json.Str Sys.ocaml_version);
      ("profile", Json.Str Build_info.profile);
      ("rev", Json.Str rev);
      ("seed", Json.of_int seed);
    ]

(* The counts of an earlier run of the same workload, seed, size and
   source are kept under [state]; a run whose counts differ failed. *)
let check_repeatable ~state ~key determinism =
  let dir = Filename.concat state "determinism" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (key ^ ".json") in
  let mine = Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) determinism)) in
  if Sys.file_exists path then begin
    let earlier = String.trim (In_channel.with_open_bin path In_channel.input_all) in
    Util.check (String.equal earlier mine) "determinism: counts %s differ from an earlier run's %s" mine
      earlier
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc (mine ^ "\n"))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and daemon = ref "" in
  let state = ref ".bench_build/perfbench" and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measured duration; sets the work list's size");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--smoke", Arg.Set smoke, " the workload's tiny smoke size, every check on");
      ("--daemon", Arg.Set_string daemon, "EXE the cloudia CLI, for serve workloads");
      ("--state", Arg.Set_string state, "DIR scratch directory for sockets, traces and counts");
      ("--rev", Arg.Set_string rev, "REV source revision, for the provenance stamp");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let prov = provenance ~seed:!seed ~rev:!rev in
  let w =
    match Workloads.find ~smoke:!smoke !workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  let trace_path =
    Filename.concat !state (Printf.sprintf "trace-%s-%d%s.jsonl" !workload !seed (if !smoke then "-smoke" else ""))
  in
  let export () = Spans.export ~path:trace_path ~seed:!seed ~argv:(Array.to_list Sys.argv) ~provenance:prov in
  let attempted = Workloads.attempted w ~seconds:!seconds in
  match
    let r =
      match w with
      | Workloads.Advise p -> Advise_bench.run p ~seed:!seed ~seconds:!seconds ~trace:traced ~export
      | Workloads.Serve p ->
          Serve_bench.run p ~seed:!seed ~seconds:!seconds ~trace:traced ~export ~cli:!daemon ~state:!state
    in
    Printf.printf "workload %s, seed %d, %s%s\n" !workload !seed
      (if traced then "traced" else "untraced")
      (if !smoke then ", smoke size" else "");
    List.iter (fun (k, v, u) -> Printf.printf "  %-28s %14.4f %s\n" k v u) r.Util.report;
    if traced then Printf.printf "trace: %s\n" trace_path;
    let determinism = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.determinism) in
    Printf.printf "provenance: %s\n" (Json.to_string prov);
    Printf.printf "determinism: %s\n%!" (Json.to_string determinism);
    check_repeatable ~state:!state
      ~key:(Printf.sprintf "%s-%s-%d-%g%s" !rev !workload !seed !seconds (if !smoke then "-smoke" else ""))
      r.determinism;
    r
  with
  | exception Util.Check_failed m ->
      Printf.eprintf "perfbench: output check failed: %s\n%!" m;
      print_endline (record ~correct:false ~attempted ~failed:attempted (Json.Obj []));
      exit 1
  | r ->
      let metrics =
        if traced then metric_json (declared "per_layer") r.layers else metric_json (declared "end_to_end") r.e2e
      in
      print_endline (record ~correct:true ~attempted:r.attempted ~failed:0 metrics)

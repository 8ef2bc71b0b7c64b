(* The serve-mixed workload: closed-loop traffic to a `cloudia serve`
   daemon running as its own process with one worker domain.

   One client on one connection sends a fixed, seeded list of jobs and
   sends each only after the previous reply arrived, so the daemon's
   caches see the requests in the same order on every run. Jobs are
   64-node longest-link anneals (plus a small share of G2) on a pool of
   measured matrices larger than the daemon's --cache-capacity, with Zipf
   popularity over matrices and over the seeds of each matrix: the daemon
   answers exact resubmissions from its memo, re-seeded anneals on known
   matrices warm (cached ranks and incumbent), and matrices it has not
   seen or has evicted cold. Every request frame is encoded during set-up,
   so the client does little work while it measures. *)

open Cloudia
module Protocol = Serve.Protocol

type params = {
  graph : Graphs.Digraph.t;
  over_allocation : float;
  samples_per_pair : int;
  mix : Gen.mix;
  anneal_moves : int;
  cache_capacity : int;
  queue_capacity : int;
  deadline_s : float;
  nominal_op_s : float;  (** one request on the reference host, seconds *)
  min_ops : int;  (** shortest job list *)
}

(* --- set-up: matrix pool, frames, daemon ----------------------------- *)

type matrix = {
  problem : Types.problem;
  fingerprint : string;
  default_cost : float;  (** longest link of the allocation-order plan *)
}

let build_pool p ~seed =
  let seeds = Prng.create seed in
  let count = Gen.instances ~graph:p.graph ~over_allocation:p.over_allocation in
  let rows =
    List.init p.mix.Gen.pool (fun _ ->
        let rng = Prng.create (Prng.int seeds 0x3FFF_FFFF) in
        let env, a_ms =
          Util.timed (fun () -> Cloudsim.Env.allocate rng Advise_bench.provider ~count)
        in
        let costs, e_ms =
          Util.timed (fun () ->
              Metrics.estimate rng env Metrics.Mean ~samples_per_pair:p.samples_per_pair)
        in
        let fingerprint, f_ms = Util.timed (fun () -> Lat_matrix.fingerprint_hex costs) in
        let problem = Types.of_matrix ~graph:p.graph costs in
        let default_cost = Cost.longest_link problem (Types.identity_plan problem) in
        ({ problem; fingerprint; default_cost }, (a_ms, e_ms, f_ms)))
  in
  ( Array.of_list (List.map fst rows),
    List.map (fun (_, (a, _, _)) -> a) rows,
    List.map (fun (_, (_, e, _)) -> e) rows,
    List.map (fun (_, (_, _, f)) -> f) rows )

let job p pool (j : Gen.job) =
  {
    Protocol.id = Gen.job_id j;
    tenant = Printf.sprintf "tenant%d" (j.matrix mod 4);
    seed = max 0 j.seed_ix;
    solver = (if j.seed_ix < 0 then Protocol.Greedy else Protocol.Anneal);
    objective = Cost.Longest_link;
    budget = p.deadline_s;
    deadline = Some p.deadline_s;
    max_moves = (if j.seed_ix < 0 then None else Some p.anneal_moves);
    clusters = None;
    graph = p.graph;
    costs = pool.(j.matrix).problem.Types.lat;
  }

(* Every job the mix can draw: each pool matrix's anneal seeds and its
   G2. Set-up encodes them all, so its work does not depend on which jobs
   a seed happens to draw. *)
let all_jobs p =
  List.concat
    (List.init p.mix.Gen.pool (fun matrix ->
         List.init (p.mix.Gen.seeds_per_matrix + 1) (fun s -> { Gen.matrix; seed_ix = s - 1 })))

let encode_frames p pool =
  let frames = Hashtbl.create 256 and enc = ref [] in
  List.iter
    (fun j ->
      let frame, ms =
        Util.timed (fun () -> Obs.Json.to_string (Protocol.json_of_request (Protocol.Advise (job p pool j))))
      in
      Hashtbl.replace frames (Gen.job_id j) frame;
      enc := ms :: !enc)
    (all_jobs p);
  (frames, !enc)

(* Each frame must decode back to the job it encodes. Returns the decode
   times. *)
let check_frames p pool frames =
  List.map
    (fun j ->
      let id = Gen.job_id j and jb = job p pool j in
      let back, ms =
        Util.timed (fun () -> Protocol.request_of_json (Obs.Json.parse (Hashtbl.find frames id)))
      in
      (match back with
      | Protocol.Advise b ->
          Util.check
            (b.Protocol.id = jb.Protocol.id && b.Protocol.seed = jb.Protocol.seed
            && Lat_matrix.equal b.Protocol.costs jb.Protocol.costs)
            "protocol: frame of %s does not decode to its job" id
      | _ -> Util.fail "protocol: frame of %s is not an advise" id);
      ms)
    (all_jobs p)

type daemon = { pid : int; socket : string; err : string }

let live_daemons : int list ref = ref []

(* No daemon outlives the benchmark, whatever path it exits by. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let start_daemon p ~cli ~state =
  let tag = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) (List.length !live_daemons) in
  (* A relative socket path stays under the 108-byte sun_path limit
     wherever the checkout lives; both processes share this directory. *)
  let socket = Filename.concat state (tag ^ ".sock") in
  let err = Filename.concat state (tag ^ ".err") in
  let fd_out = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let fd_err = Unix.openfile err [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  (* The runtime prints its GC totals on exit: the daemon's allocation. *)
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let args =
    [|
      cli; "serve"; "--socket"; socket; "--domains"; "1";
      "--queue-capacity"; string_of_int p.queue_capacity;
      "--cache-capacity"; string_of_int p.cache_capacity;
      "--default-deadline"; Printf.sprintf "%g" p.deadline_s;
    |]
  in
  let pid = Unix.create_process_env cli args env Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  live_daemons := pid :: !live_daemons;
  let t0 = Util.now_ns () in
  let rec ready () =
    match Serve.Client.connect socket with
    | c ->
        Serve.Client.ping c;
        Serve.Client.close c
    | exception Unix.Unix_error _ ->
        if Util.ms_since t0 > 20_000.0 then failwith "serve: daemon did not start";
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve: daemon exited during start-up");
        Thread.delay 0.002;
        ready ()
  in
  ready ();
  { pid; socket; err }

(* SIGTERM drains and stops the daemon. Returns its minor words and major
   collections from the runtime's exit report. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  let lines = String.split_on_char '\n' (In_channel.with_open_text d.err In_channel.input_all) in
  let value key =
    let prefix = key ^ ": " in
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          float_of_string_opt
            (String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix)))
        else None)
      lines
    |> Option.value ~default:0.0
  in
  Sys.remove d.err;
  (try Sys.remove d.socket with Sys_error _ -> ());
  (value "minor_words", value "major_collections")

(* --- the closed loop ------------------------------------------------- *)

type reply = {
  k : int;  (** position in the job list *)
  sent_ns : int64;
  recv_ns : int64;  (** the reply frame fully read *)
  plan : int array;
  cost : float;
  cached : bool;
  warm : bool;
  fingerprint : string;
  server_ms : float;
  trace_ms : float;  (** recording this request's spans; 0 untraced *)
}

(* Send [jobs.(0 .. count-1)] one at a time over one connection; each
   request waits for the previous reply. A traced drive records, per
   request, the frame write, the wait for the reply and its decoding. *)
let drive d frames (jobs : Gen.job array) ~count ~traced =
  let client = Serve.Client.connect d.socket in
  let fd = Serve.Client.raw_fd client in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  let replies =
    Array.init count (fun k ->
        let id = Gen.job_id jobs.(k) in
        let span name t0 t1 = Spans.record { Spans.name; op = k; root = false; t0; t1 } in
        let sent_ns = Util.now_ns () in
        Protocol.write_frame fd (Hashtbl.find frames id);
        let t_written = Util.now_ns () in
        let payload =
          match Protocol.read_frame fd with
          | Some s -> s
          | None -> Util.fail "%s: the daemon closed the connection" id
        in
        let recv_ns = Util.now_ns () in
        let reply = Protocol.reply_of_json (Obs.Json.parse payload) in
        let t_decoded = Util.now_ns () in
        (* Recording the spans is all a traced request does beyond an
           untraced one, so its time is the tracing overhead. *)
        let (), trace_ms =
          Util.timed (fun () ->
              if traced then begin
                Spans.record { Spans.name = "serve.request"; op = k; root = true; t0 = sent_ns; t1 = t_decoded };
                span "protocol.write_frame" sent_ns t_written;
                span "serve.reply_wait" t_written recv_ns;
                span "protocol.decode_reply" recv_ns t_decoded
              end)
        in
        match reply with
        | Protocol.Result r ->
            Util.check (String.equal r.r_id id) "reply for %s answers %s" id r.r_id;
            {
              k;
              sent_ns;
              recv_ns;
              plan = r.r_plan;
              cost = r.r_cost;
              cached = r.r_cached;
              warm = r.r_warm;
              fingerprint = r.r_fingerprint;
              server_ms = r.r_latency_ms;
              trace_ms;
            }
        | Protocol.Rejected r -> Util.fail "%s rejected: %s" id r.reason
        | Protocol.Failed r -> Util.fail "%s failed: %s" id r.message
        | Protocol.Pong | Protocol.Stats _ -> Util.fail "%s: unexpected reply kind" id)
  in
  Serve.Client.close client;
  replies

(* Each reply's plan must be valid, its cost reproduced bit for bit by
   Cost.eval, and its fingerprint that of the matrix sent; each memo
   reply's cost must equal a solve of the same job earlier in the run. *)
let verify pool (jobs : Gen.job array) replies =
  let solved = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      let j = jobs.(r.k) in
      let id = Gen.job_id j and m = pool.(j.matrix) in
      (match Types.validate m.problem r.plan with
      | () -> ()
      | exception Invalid_argument e -> Util.fail "%s: invalid plan: %s" id e);
      let cost = Cost.eval Cost.Longest_link m.problem r.plan in
      Util.check (Util.same_float cost r.cost) "%s: reported cost %.17g, Cost.eval %.17g" id r.cost cost;
      Util.check (String.equal r.fingerprint m.fingerprint) "%s: fingerprint %s, expected %s" id
        r.fingerprint m.fingerprint;
      let key = (id, Int64.bits_of_float r.cost) in
      if r.cached then Util.check (Hashtbl.mem solved key) "%s: memo cost %.17g matches no solve" id r.cost
      else Hashtbl.replace solved key ())
    replies

let signature jobs r =
  Printf.sprintf "%s:%s:%Lx:%b:%b" (Gen.job_id jobs.(r.k))
    (String.concat "," (Array.to_list (Array.map string_of_int r.plan)))
    (Int64.bits_of_float r.cost) r.cached r.warm

(* --- the anneal layer in isolation ----------------------------------- *)

(* Pool matrices the traced run anneals in this process. *)
let probe_matrices = 8

type probe = { anneal : Anneal.result; anneal_ms : float; anneal_words : float; g2_ms : float }

(* What the daemon runs for a warm request, timed in this process: on
   each probed matrix, the anneal of seed 0 over the matrix's ranks gives
   the incumbent, and the anneal of seed 1 started from it over the same
   ranks is measured; so is the matrix's G2 plan. *)
let probe p pool =
  let options =
    { Anneal.default_options with time_limit = p.deadline_s; max_moves = Some p.anneal_moves }
  in
  List.init (min probe_matrices (Array.length pool)) (fun i ->
      let m = pool.(i) in
      let ranks = Delta_cost.ranks_of_matrix m.problem.Types.lat in
      let solve ?init seed =
        Anneal.solve_objective ~options ?init ~ranks (Prng.create seed) Cost.Longest_link m.problem
      in
      let incumbent = solve 0 in
      let (anneal, anneal_words), anneal_ms =
        Util.timed (fun () -> Util.words (fun () -> solve ~init:incumbent.Anneal.plan 1))
      in
      Util.check
        (Util.same_float anneal.Anneal.cost (Cost.eval Cost.Longest_link m.problem anneal.Anneal.plan))
        "probe: warm anneal of matrix %d reports a cost Cost.eval does not reproduce" i;
      let _, g2_ms = Util.timed (fun () -> Greedy.g2 m.problem) in
      { anneal; anneal_ms; anneal_words; g2_ms })

(* --- the workload ---------------------------------------------------- *)

(* Each pass replays the whole job list to a fresh daemon, so the second
   must see its caches hit, miss and evict exactly as the first did. *)
let passes = 2

let list_size p ~seconds = Harness.list_size ~passes ~nominal_op_s:p.nominal_op_s ~min_ops:p.min_ops ~seconds

(* One set-up: the matrix pool, every request frame and a fresh daemon. *)
type inputs = {
  pool : matrix array;
  frames : (string, string) Hashtbl.t;
  allocate_ms : float list;
  estimate_ms : float list;
  fingerprint_ms : float list;
  encode_ms : float list;
  daemon : daemon;
}

(* What a pass learns from its daemon after the list. *)
type daemon_report = {
  stats : (string * int) list;  (** the daemon's counters *)
  peak_rss : float;
  minor_words : float;
  major_collections : float;
  verify_ms : float;  (** checking every reply of the pass *)
}

let run p ~seed ~seconds ~trace ~export ~cli ~state =
  let n = list_size p ~seconds in
  let jobs = Gen.job_list p.mix ~seed n in
  let set_up () =
    let pool, allocate_ms, estimate_ms, fingerprint_ms = build_pool p ~seed in
    let frames, encode_ms = encode_frames p pool in
    { pool; frames; allocate_ms; estimate_ms; fingerprint_ms; encode_ms; daemon = start_daemon p ~cli ~state }
  in
  (* Each pass sends the whole list to a fresh daemon. A traced run traces
     its first pass only. *)
  let reports = ref [] in
  let pass ~pass inputs =
    let d = inputs.daemon in
    let t0 = Util.now_ns () in
    let replies = drive d inputs.frames jobs ~count:n ~traced:(trace && pass = 0) in
    let list_ms = Util.ms_since t0 in
    let stats = Serve.Client.(let c = connect d.socket in let s = stats c in close c; s) in
    let peak_rss = Util.peak_rss_mb (string_of_int d.pid) in
    let minor_words, major_collections = stop_daemon d in
    let (), verify_ms = Util.timed (fun () -> verify inputs.pool jobs replies) in
    reports := { stats; peak_rss; minor_words; major_collections; verify_ms } :: !reports;
    (replies, list_ms)
  in
  let round_trip r = Util.ms_between r.sent_ns r.recv_ns in
  let h =
    Harness.run ~passes ~setups_per_round:2 ~set_up
      ~release:(fun i -> ignore (stop_daemon i.daemon))
      ~pass ~wall_ms:round_trip ~signature:(signature jobs)
  in
  let { pool; frames; _ } = h.ctx in
  let decode_ms = check_frames p pool frames in
  let first = List.hd (List.rev !reports) in
  let all = Array.to_list h.runs.(0).ops in
  let peak_rss = List.fold_left (fun m r -> Float.max m r.peak_rss) 0.0 !reports in
  (* Plan quality per distinct job, at its first answer: weighting by
     request count would let the few most popular matrices decide it. *)
  let improvement =
    let seen = Hashtbl.create 256 in
    Util.mean
      (List.filter_map
         (fun r ->
           let j = jobs.(r.k) in
           let id = Gen.job_id j in
           if Hashtbl.mem seen id then None
           else begin
             Hashtbl.add seen id ();
             Some (Cost.improvement ~default:pool.(j.matrix).default_cost ~optimized:r.cost)
           end)
         all)
  in
  (* Memo hits, warm and cold anneals and solved G2 plans partition the
     requests. *)
  let is_g2 r = jobs.(r.k).seed_ix < 0 in
  let memo = List.filter (fun r -> r.cached) all in
  let warm = List.filter (fun r -> r.warm) all in
  let cold = List.filter (fun r -> (not r.cached) && (not r.warm) && not (is_g2 r)) all in
  let g2 = List.filter (fun r -> (not r.cached) && is_g2 r) all in
  let frac l = Util.ratio (float_of_int (List.length l)) (float_of_int n) in
  let determinism =
    Harness.determinism h ~improvement
      (List.map
         (fun (k, l) -> (k, string_of_int (List.length l)))
         [ ("serve.memo", memo); ("serve.warm", warm); ("serve.cold", cold); ("serve.g2", g2) ])
  in
  let stat k = float_of_int (Option.value (List.assoc_opt k first.stats) ~default:0) in
  let server = List.map (fun r -> r.server_ms) all in
  let class_ms l = Util.median (List.map (fun r -> r.server_ms) l) in
  let layers =
    if not trace then []
    else begin
      let table = export () in
      let frame_kb =
        Util.mean (List.map (fun j -> float_of_int (String.length (Hashtbl.find frames (Gen.job_id j)))) (Array.to_list jobs))
        /. 1024.0
      in
      let client_ms =
        Spans.total_ms table "protocol.write_frame" +. Spans.total_ms table "protocol.decode_reply"
      in
      let probes = probe p pool in
      let probe_sum f = List.fold_left (fun s x -> s +. f x) 0.0 probes in
      let moves = probe_sum (fun x -> float_of_int x.anneal.Anneal.moves_tried) in
      let anneal_ms = Util.median (List.map (fun x -> x.anneal_ms) probes) in
      [
        ("cloudsim.allocate_ms", Util.median h.ctx.allocate_ms);
        ("metrics.estimate_ms", Util.median h.ctx.estimate_ms);
        ("anneal.solve_ms", anneal_ms);
        ("anneal.moves_tried", Util.ratio moves (float_of_int (List.length probes)));
        ("anneal.ns_per_move", Util.ratio (probe_sum (fun x -> x.anneal_ms) *. 1e6) moves);
        ("anneal.words_per_move", Util.ratio (probe_sum (fun x -> x.anneal_words)) moves);
        ( "anneal.accept_frac",
          Util.ratio (probe_sum (fun x -> float_of_int x.anneal.Anneal.moves_accepted)) moves );
        ("greedy.g2_ms", Util.median (List.map (fun x -> x.g2_ms) probes));
        ("verify_ms", first.verify_ms /. float_of_int n);
        ("serve.server_ms.p50", Util.median server);
        ("serve.transport_ms.p50", Util.median (List.map (fun r -> round_trip r -. r.server_ms) all));
        ("serve.memo_ms.p50", class_ms memo);
        ("serve.warm_ms.p50", class_ms warm);
        ("serve.cold_ms.p50", class_ms cold);
        ("serve.memo_frac", frac memo);
        ("serve.warm_frac", frac warm);
        ( "serve.cache_hit_frac",
          Util.ratio (stat "serve.cache_hits") (stat "serve.cache_hits" +. stat "serve.cache_misses") );
        ("protocol.decode_ms", Util.median decode_ms);
        ("protocol.encode_ms", Util.median h.ctx.encode_ms);
        ("protocol.frame_kb", frame_kb);
        ("lat_matrix.fingerprint_ms", Util.median h.ctx.fingerprint_ms);
        ("serve.rejected", stat "serve.rejected");
        ("serve.deadline_expired", stat "serve.deadline_expired");
        ("gc.minor_words", Util.ratio first.minor_words (float_of_int n));
        ("gc.major_collections", Util.ratio first.major_collections (float_of_int n));
        ( "layer_sum_frac",
          Util.ratio (client_ms +. List.fold_left ( +. ) 0.0 server) (Spans.total_ms table "serve.request") );
        ("trace.overhead_frac", Util.median (List.map (fun r -> r.trace_ms /. round_trip r) all));
      ]
      @ Harness.latency_layers h
    end
  in
  let report =
    Harness.report h ~improvement
    @ [
        ("memo_frac", frac memo, "frac");
        ("warm_frac", frac warm, "frac");
        ("cold_frac", frac cold, "frac");
        ("g2_frac", frac g2, "frac");
        ("memo_ms.p50", class_ms memo, "ms");
        ("warm_ms.p50", class_ms warm, "ms");
        ("cold_ms.p50", class_ms cold, "ms");
        ("g2_ms.p50", class_ms g2, "ms");
        ("server_ms.p50", Util.median server, "ms");
        ("peak_rss_mb", peak_rss, "MB");
      ]
  in
  {
    Util.attempted = Harness.operations h;
    e2e = Harness.e2e h ~improvement ~peak_rss;
    layers;
    report;
    determinism;
  }

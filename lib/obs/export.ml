(* ---- minimal JSON emission (no external dependency) ---- *)

(* JSON has no literal for infinities or NaN. *)
let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let schema_version = 2

type run = {
  seed : int option;
  argv : string list;
}

(* ---- JSONL: one self-describing JSON object per line ---- *)

let hist_json ~common (s : Histogram.snapshot) =
  let buckets =
    String.concat "," (List.map (fun (i, c) -> Printf.sprintf "[%d,%d]" i c) s.hist_buckets)
  in
  Printf.sprintf
    "{\"type\":\"hist\",\"name\":\"%s\",\"alpha\":%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"zero\":%d,\"buckets\":[%s],%s}"
    (Json.escape s.hist_name) (number s.hist_alpha) s.hist_count (number s.hist_sum)
    (number s.hist_min) (number s.hist_max) s.hist_zero buckets common

let jsonl ?run ?(counters = []) ?(gauges = []) ?(hists = []) oc events =
  (* Aggregate (counter/gauge/hist) lines are point-in-time snapshots:
     stamp them all with one export-time timestamp and the exporting
     domain, so every line in the file carries ts_ns/domain. *)
  let now = Printf.sprintf "\"ts_ns\":%Ld,\"domain\":%d" (Clock.now_ns ())
      (Domain.self () :> int)
  in
  (let seed, argv = match run with Some r -> (r.seed, r.argv) | None -> (None, []) in
   Printf.fprintf oc "{\"type\":\"header\",\"schema\":%d,\"seed\":%s,\"argv\":[%s],%s}\n"
     schema_version
     (match seed with Some s -> string_of_int s | None -> "null")
     (String.concat "," (List.map (fun a -> "\"" ^ Json.escape a ^ "\"") argv))
     now);
  List.iter
    (fun (e : Event.t) ->
      let common = Printf.sprintf "\"ts_ns\":%Ld,\"domain\":%d" e.Event.t_ns e.Event.domain in
      (match e.Event.payload with
      | Event.Span_begin n ->
          Printf.fprintf oc "{\"type\":\"span_begin\",\"name\":\"%s\",%s}" (Json.escape n) common
      | Event.Span_end n ->
          Printf.fprintf oc "{\"type\":\"span_end\",\"name\":\"%s\",%s}" (Json.escape n) common
      | Event.Incumbent { stream; cost } ->
          Printf.fprintf oc "{\"type\":\"incumbent\",\"stream\":\"%s\",\"cost\":%s,%s}"
            (Json.escape stream) (number cost) common
      | Event.Mark n ->
          Printf.fprintf oc "{\"type\":\"mark\",\"name\":\"%s\",%s}" (Json.escape n) common
      | Event.Gc_delta g ->
          Printf.fprintf oc
            "{\"type\":\"gc\",\"span\":\"%s\",\"minor_words\":%s,\"major_words\":%s,\"promoted_words\":%s,\"heap_words\":%d,\"compactions\":%d,%s}"
            (Json.escape g.span) (number g.minor_words) (number g.major_words)
            (number g.promoted_words) g.heap_words g.compactions common);
      output_char oc '\n')
    events;
  List.iter
    (fun (name, total) ->
      Printf.fprintf oc "{\"type\":\"counter\",\"name\":\"%s\",\"total\":%d,%s}\n" (Json.escape name)
        total now)
    counters;
  List.iter
    (fun (name, v) ->
      Printf.fprintf oc "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s,%s}\n" (Json.escape name)
        (number v) now)
    gauges;
  List.iter
    (fun (s : Histogram.snapshot) ->
      output_string oc (hist_json ~common:now s);
      output_char oc '\n')
    hists

(* ---- Chrome trace_event format (chrome://tracing, Perfetto) ---- *)

let chrome ?run ?(counters = []) ?(gauges = []) ?(hists = []) oc events =
  ignore run;
  let t0 =
    List.fold_left
      (fun acc (e : Event.t) -> if Int64.compare e.Event.t_ns acc < 0 then e.Event.t_ns else acc)
      (match events with [] -> 0L | e :: _ -> e.Event.t_ns)
      events
  in
  let last = ref 0.0 in
  let us t =
    let v = Clock.ns_to_us (Int64.sub t t0) in
    if v > !last then last := v;
    v
  in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else output_char oc ',';
    output_char oc '\n';
    output_string oc line
  in
  List.iter
    (fun (e : Event.t) ->
      let ts = us e.Event.t_ns in
      match e.Event.payload with
      | Event.Span_begin n ->
          emit
            (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"cloudia\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
               (Json.escape n) ts e.Event.domain)
      | Event.Span_end n ->
          emit
            (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"cloudia\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
               (Json.escape n) ts e.Event.domain)
      | Event.Incumbent { stream; cost } ->
          emit
            (Printf.sprintf
               "{\"name\":\"incumbent:%s\",\"cat\":\"cloudia\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"cost\":%s}}"
               (Json.escape stream) ts e.Event.domain (number cost))
      | Event.Mark n ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"cloudia\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\"}"
               (Json.escape n) ts e.Event.domain)
      | Event.Gc_delta g ->
          emit
            (Printf.sprintf
               "{\"name\":\"gc:%s\",\"cat\":\"cloudia\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"minor_words\":%s,\"major_words\":%s}}"
               (Json.escape g.span) ts e.Event.domain (number g.minor_words)
               (number g.major_words)))
    events;
  (* Final counter/gauge totals as counter samples at the trace's end. *)
  List.iter
    (fun (name, total) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"cloudia\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}"
           (Json.escape name) !last total))
    counters;
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"cloudia\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"value\":%s}}"
           (Json.escape name) !last (number v)))
    gauges;
  (* Histograms as end-of-trace instants carrying their quantile table. *)
  List.iter
    (fun (s : Histogram.snapshot) ->
      emit
        (Printf.sprintf
           "{\"name\":\"hist:%s\",\"cat\":\"cloudia\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{\"count\":%d,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s}}"
           (Json.escape s.hist_name) !last s.hist_count
           (number (Histogram.quantile_of s 0.50))
           (number (Histogram.quantile_of s 0.90))
           (number (Histogram.quantile_of s 0.99))
           (number s.hist_max)))
    hists;
  output_string oc "\n]}\n"

(* ---- plain-text summary tree ---- *)

type node = {
  mutable total_ns : int64;
  mutable calls : int;
  children : (string, node) Hashtbl.t;
  order : string Queue.t; (* child names in first-seen order *)
}

let make_node () = { total_ns = 0L; calls = 0; children = Hashtbl.create 4; order = Queue.create () }

let child node name =
  match Hashtbl.find_opt node.children name with
  | Some c -> c
  | None ->
      let c = make_node () in
      Hashtbl.add node.children name c;
      Queue.add name node.order;
      c

(* Rebuild one domain's span tree from its begin/end sequence. Unmatched
   ends are ignored; spans still open at the last event are closed there
   (a trace cut mid-flight should still sum sensibly). *)
let domain_tree events =
  let root = make_node () in
  let stack = ref [] in
  let last_ts = List.fold_left (fun _ (e : Event.t) -> e.Event.t_ns) 0L events in
  let parent () = match !stack with [] -> root | (_, _, n) :: _ -> n in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Span_begin name ->
          let n = child (parent ()) name in
          stack := (name, e.Event.t_ns, n) :: !stack
      | Event.Span_end name -> (
          match !stack with
          | (top, t_begin, n) :: rest when top = name ->
              n.calls <- n.calls + 1;
              n.total_ns <- Int64.add n.total_ns (Int64.sub e.Event.t_ns t_begin);
              stack := rest
          | _ -> ())
      | Event.Incumbent _ | Event.Mark _ | Event.Gc_delta _ -> ())
    events;
  List.iter
    (fun (_, t_begin, n) ->
      n.calls <- n.calls + 1;
      n.total_ns <- Int64.add n.total_ns (Int64.sub last_ts t_begin))
    !stack;
  root

let summary ?run ?(counters = []) ?(gauges = []) ?(hists = []) oc events =
  (match run with
  | Some { seed; argv } when argv <> [] || seed <> None ->
      Printf.fprintf oc "run: %s%s\n"
        (String.concat " " argv)
        (match seed with Some s -> Printf.sprintf " (seed %d)" s | None -> "")
  | _ -> ());
  let domains =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> e.Event.domain) events)
  in
  Printf.fprintf oc "observability summary (%d events, %d domain(s))\n" (List.length events)
    (List.length domains);
  List.iter
    (fun dom ->
      let evs = List.filter (fun (e : Event.t) -> e.Event.domain = dom) events in
      let root = domain_tree evs in
      if Hashtbl.length root.children > 0 then begin
        Printf.fprintf oc "  domain %d\n" dom;
        let rec print indent node =
          Queue.iter
            (fun name ->
              let c = Hashtbl.find node.children name in
              Printf.fprintf oc "  %s%-*s %6d call%s %12.3f ms\n" indent
                (max 1 (34 - String.length indent))
                name c.calls
                (if c.calls = 1 then " " else "s")
                (Clock.ns_to_ms c.total_ns);
              print (indent ^ "  ") c)
            node.order
        in
        print "  " root
      end)
    domains;
  (* Allocation footprint per Resource.with_ span, aggregated by name. *)
  let gc_totals = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Gc_delta g ->
          let minor, major, n =
            match Hashtbl.find_opt gc_totals g.span with
            | Some x -> x
            | None -> (0.0, 0.0, 0)
          in
          Hashtbl.replace gc_totals g.span
            (minor +. g.minor_words, major +. g.major_words, n + 1)
      | _ -> ())
    events;
  if Hashtbl.length gc_totals > 0 then begin
    Printf.fprintf oc "  gc (per span)%26s %14s %14s\n" "samples" "minor words" "major words";
    Hashtbl.fold (fun s v acc -> (s, v) :: acc) gc_totals []
    |> List.sort compare
    |> List.iter (fun (span, (minor, major, n)) ->
           Printf.fprintf oc "    %-36s %6d %14.0f %14.0f\n" span n minor major)
  end;
  let incumbent_counts = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Incumbent { stream; cost } ->
          let n, _ =
            match Hashtbl.find_opt incumbent_counts stream with Some x -> x | None -> (0, nan)
          in
          Hashtbl.replace incumbent_counts stream (n + 1, cost)
      | _ -> ())
    events;
  if Hashtbl.length incumbent_counts > 0 then begin
    Printf.fprintf oc "  incumbent streams\n";
    Hashtbl.fold (fun s v acc -> (s, v) :: acc) incumbent_counts []
    |> List.sort compare
    |> List.iter (fun (stream, (updates, final)) ->
           Printf.fprintf oc "    %-32s %6d update%s final %.3f\n" stream updates
             (if updates = 1 then " " else "s")
             final)
  end;
  if hists <> [] then begin
    Printf.fprintf oc "  histograms%32s %10s %10s %10s %10s %10s\n" "count" "mean" "p50" "p90"
      "p99" "max";
    List.iter
      (fun (s : Histogram.snapshot) ->
        Printf.fprintf oc "    %-36s %6d %10.3g %10.3g %10.3g %10.3g %10.3g\n" s.hist_name
          s.hist_count (Histogram.mean_of s)
          (Histogram.quantile_of s 0.50)
          (Histogram.quantile_of s 0.90)
          (Histogram.quantile_of s 0.99)
          s.hist_max)
      hists
  end;
  if counters <> [] then begin
    Printf.fprintf oc "  counters\n";
    List.iter (fun (name, v) -> Printf.fprintf oc "    %-40s %12d\n" name v) counters
  end;
  if gauges <> [] then begin
    Printf.fprintf oc "  gauges\n";
    List.iter (fun (name, v) -> Printf.fprintf oc "    %-40s %12.4f\n" name v) gauges
  end

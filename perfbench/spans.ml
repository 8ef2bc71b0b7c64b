(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around each call into
   a layer's public functions; the library's own sink stays off, so the
   traced run makes exactly the calls the untraced run makes. Each span
   belongs to an operation: one advise, or one daemon request, whose
   spans share its id. At exit the spans become {!Obs.Event}s, written
   with {!Obs.Export.jsonl} and read back through {!Obs.Trace}, whose span
   tree yields the per-layer self times. *)

type span = {
  name : string;
  op : int;  (** advise or request id, shared by every span of it *)
  root : bool;  (** the operation's enclosing span *)
  t0 : int64;
  t1 : int64;
}

let spans : span list ref = ref []
let record s = spans := s :: !spans

(* [time on ~op name f] runs [f] and, when [on], records its span. *)
let time ?(root = false) on ~op name f =
  if not on then f ()
  else begin
    let t0 = Util.now_ns () in
    let r = f () in
    record { name; op; root; t0; t1 = Util.now_ns () };
    r
  end

(* Events in time order; each span's begin is followed by a mark naming
   its operation. At equal timestamps an inner span closes before its
   parent, and a parent opens before its children, so
   {!Obs.Trace.span_tree} rebuilds the nesting. *)
let events () =
  let evs =
    List.concat_map
      (fun s ->
        let ev t_ns payload = { Obs.Event.t_ns; domain = 0; payload } in
        let opens, closes = if s.root then (2, 1) else (4, 0) in
        [
          (s.t0, opens, ev s.t0 (Obs.Event.Span_begin s.name));
          (s.t0, opens + 1, ev s.t0 (Obs.Event.Mark (Printf.sprintf "op=%d" s.op)));
          (s.t1, closes, ev s.t1 (Obs.Event.Span_end s.name));
        ])
      (List.rev !spans)
  in
  let order (ta, ra, _) (tb, rb, _) =
    match Int64.compare ta tb with 0 -> Int.compare ra rb | c -> c
  in
  List.map (fun (_, _, e) -> e) (List.stable_sort order evs)

type layer = { calls : int; total_ms : float; self_ms : float }

(* The exporter's header names the seed and argv; the provenance object
   (host, compiler, build, source revision) is added to the same line,
   which {!Obs.Trace.load} reads past. *)
let stamp_header path provenance =
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  let lines =
    match lines with
    | header :: rest when String.length header > 0 && header.[String.length header - 1] = '}' ->
        let open_ = String.sub header 0 (String.length header - 1) in
        (open_ ^ ",\"provenance\":" ^ Obs.Json.to_string provenance ^ "}") :: rest
    | _ -> failwith ("trace header missing in " ^ path)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (String.concat "\n" lines))

(* Write the trace and derive per-span-name totals from the file, so the
   numbers reported are the ones the trace itself answers. *)
let export ~path ~seed ~argv ~provenance =
  Out_channel.with_open_bin path (fun oc ->
      Obs.Export.jsonl ~run:{ Obs.Export.seed = Some seed; argv } oc (events ()));
  stamp_header path provenance;
  let trace =
    match Obs.Trace.load path with Ok t -> t | Error e -> failwith ("trace reload: " ^ e)
  in
  let table = Hashtbl.create 16 in
  let rec walk (n : Obs.Trace.node) =
    let prev =
      Option.value (Hashtbl.find_opt table n.span) ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }
    in
    Hashtbl.replace table n.span
      {
        calls = prev.calls + n.calls;
        total_ms = prev.total_ms +. Obs.Clock.ns_to_ms n.total_ns;
        self_ms = prev.self_ms +. Obs.Clock.ns_to_ms n.self_ns;
      };
    List.iter walk n.children
  in
  List.iter (fun (_, roots) -> List.iter walk roots) (Obs.Trace.span_tree trace);
  table

(* Mean self time per call of one span name, in ms; 0 when never called. *)
let self_ms table name =
  match Hashtbl.find_opt table name with
  | Some l when l.calls > 0 -> l.self_ms /. float_of_int l.calls
  | _ -> 0.0

let total_ms table name =
  match Hashtbl.find_opt table name with Some l -> l.total_ms | None -> 0.0

(* The measurement loop every workload shares.

   A run performs a fixed list of operations [passes] times. Set-up is
   repeated before each pass and after the last, so its median samples the
   same stretch of host time as the passes do. Every pass must reproduce
   the first exactly, operation by operation; the timings of all passes
   are pooled, which averages over the host's speed swings. *)

(* Operations in the list: [seconds] of work over all passes at the
   workload's nominal cost per operation. *)
let list_size ~passes ~nominal_op_s ~min_ops ~seconds =
  Gen.work_size ~seconds ~nominal_s:(nominal_op_s *. float_of_int passes) ~min_ops

type 'op pass = { ops : 'op array; ms : float  (** measured wall time of the list *) }

type ('ctx, 'op) t = {
  ctx : 'ctx;  (** the inputs the first pass ran on *)
  runs : 'op pass array;
  setup_s : float;  (** median of every set-up *)
  latency : float list;  (** every operation's wall time, all passes pooled *)
  plans_per_s : float;
  digest : string;  (** of the first pass's signatures *)
}

(* [run ~passes ~setups_per_round ~set_up ~release ~pass ~wall_ms
   ~signature] times [setups_per_round] set-ups per round. A round's first set-up
   feeds the pass after it; [release] disposes of the others and of the
   last round's. [pass ~pass ctx] performs the list and returns its
   operations and measured wall time; [signature] names an operation's
   plans, costs and effort, which every pass must repeat. *)
let run ~passes ~setups_per_round ~set_up ~release ~pass ~wall_ms ~signature =
  let setup_ms = ref [] in
  let timed_set_up () =
    let ctx, ms = Util.timed set_up in
    setup_ms := ms :: !setup_ms;
    ctx
  in
  let round () =
    let ctx = timed_set_up () in
    for _ = 2 to setups_per_round do
      release (timed_set_up ())
    done;
    ctx
  in
  let runs =
    Array.init passes (fun k ->
        let ctx = round () in
        let ops, ms = pass ~pass:k ctx in
        Printf.printf "  pass %d: %d operations in %.0f ms, p50 %.2f ms\n%!" k (Array.length ops) ms
          (Util.median (Array.to_list (Array.map wall_ms ops)));
        (ctx, { ops; ms }))
  in
  release (round ());
  let ctx = fst runs.(0) and runs = Array.map snd runs in
  let sigs = Array.map signature runs.(0).ops in
  Array.iteri
    (fun k r ->
      Array.iteri
        (fun i op ->
          Util.check (String.equal (signature op) sigs.(i))
            "determinism: operation %d gave different plans or counts in pass %d" i k)
        r.ops)
    runs;
  let latency = List.concat_map (fun r -> Array.to_list (Array.map wall_ms r.ops)) (Array.to_list runs) in
  let total_ms = Array.fold_left (fun t r -> t +. r.ms) 0.0 runs in
  {
    ctx;
    runs;
    setup_s = Util.median !setup_ms /. 1000.0;
    latency;
    plans_per_s = float_of_int (List.length latency) /. (total_ms /. 1000.0);
    digest = Util.digest (Array.to_list sigs);
  }

let operations h = List.length h.latency

(* The end-to-end metrics, measured untraced. *)
let e2e h ~improvement ~peak_rss =
  [
    ("setup_s", h.setup_s);
    ("latency_ms.p50", Util.median h.latency);
    ("plans_per_s", h.plans_per_s);
    ("improvement_pct", improvement);
    ("peak_rss_mb", peak_rss);
  ]

(* The counts a seed must reproduce exactly: the operation count, plan
   quality, the workload's effort [counts] and the digest. *)
let determinism h ~improvement counts =
  [ ("operations", string_of_int (operations h)); ("improvement_pct", Printf.sprintf "%.17g" improvement) ]
  @ counts
  @ [ ("digest", h.digest) ]

let latency_layers h =
  [ ("latency_ms.p90", Util.quantile h.latency 0.9); ("latency.samples", float_of_int (operations h)) ]

let report h ~improvement =
  [
    ("latency_ms.p50", Util.median h.latency, "ms");
    ("latency_ms.p90", Util.quantile h.latency 0.9, "ms");
    ("latency.samples", float_of_int (operations h), "count");
    ("improvement_pct", improvement, "%");
    ("setup_s", h.setup_s, "s");
  ]

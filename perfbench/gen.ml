(* Seeded input generators. Everything a run works on comes from here and
   from --seed alone, so the same seed gives the same inputs on any host. *)

(* How many operations a run performs: [seconds] of work at the
   workload's nominal per-operation cost on the reference host, at least
   [min_ops]. The count depends on the arguments only, never on how fast
   this host runs, so every run of a seed does the same work. *)
let work_size ~seconds ~nominal_s ~min_ops =
  max min_ops (int_of_float (Float.round (seconds /. nominal_s)))

(* Instances allocated for a deployment graph at an over-allocation
   ratio: the count Advisor.run allocates. *)
let instances ~graph ~over_allocation =
  int_of_float (Float.ceil (float_of_int (Graphs.Digraph.n graph) *. (1.0 +. over_allocation)))

(* [n] seeds, one per allocation a run advises. *)
let allocation_seeds ~seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Prng.int rng 0x3FFF_FFFF)

(* Inverse-CDF draw from a Zipf(s) law over [0, n): rank 0 is the most
   popular. *)
let zipf_sampler n s =
  if n < 1 then invalid_arg "zipf_sampler: empty support";
  let cdf = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  for i = 1 to n - 1 do
    cdf.(i) <- cdf.(i) +. cdf.(i - 1)
  done;
  let total = cdf.(n - 1) in
  fun rng ->
    let u = Prng.uniform rng *. total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* A serve job: a seeded anneal of one pool matrix, or its G2 plan when
   [seed_ix < 0]. *)
type job = { matrix : int; seed_ix : int }

let job_id j =
  if j.seed_ix < 0 then Printf.sprintf "m%d-g2" j.matrix
  else Printf.sprintf "m%d-s%d" j.matrix j.seed_ix

type mix = {
  pool : int;  (** matrices jobs are drawn from *)
  seeds_per_matrix : int;  (** distinct anneal seeds per matrix *)
  matrix_zipf : float;
  seed_zipf : float;
  g2_share : float;
}

(* The closed loop's request sequence: [n] jobs with Zipf popularity over
   matrices and over each matrix's seeds. *)
let job_list mix ~seed n =
  let rng = Prng.create (seed lxor 0x5EED) in
  let pick_matrix = zipf_sampler mix.pool mix.matrix_zipf in
  let pick_seed = zipf_sampler mix.seeds_per_matrix mix.seed_zipf in
  Array.init n (fun _ ->
      let matrix = pick_matrix rng in
      let seed_ix = if Prng.uniform rng < mix.g2_share then -1 else pick_seed rng in
      { matrix; seed_ix })

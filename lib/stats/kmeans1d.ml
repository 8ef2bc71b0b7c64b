type result = {
  centers : float array;
  boundaries : float array;
  cost : float;
}

let distinct_sorted xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* Compact runs of equal values in place, counting each run. *)
  let n = Array.length sorted in
  let counts = Array.make n 0 and d = ref 0 in
  for i = 0 to n - 1 do
    if !d > 0 && sorted.(!d - 1) = sorted.(i) then counts.(!d - 1) <- counts.(!d - 1) + 1
    else begin
      sorted.(!d) <- sorted.(i);
      counts.(!d) <- 1;
      incr d
    end
  done;
  (Array.sub sorted 0 !d, Array.sub counts 0 !d)

let distinct_count xs = Array.length (fst (distinct_sorted xs))

let cluster ~k xs =
  if k <= 0 then invalid_arg "Kmeans1d.cluster: k must be positive";
  if Array.length xs = 0 then invalid_arg "Kmeans1d.cluster: empty input";
  (* NaN breaks the sort order and ±inf poisons the prefix sums; either
     would silently corrupt the DP tables, so reject up front. *)
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then
        invalid_arg
          (Printf.sprintf "Kmeans1d.cluster: input %d is %s; values must be finite" i
             (if Float.is_nan x then "NaN" else "infinite")))
    xs;
  let values, weights = distinct_sorted xs in
  let n = Array.length values in
  let k = min k n in
  (* Weighted prefix sums for O(1) interval SSE queries. *)
  let pw = Array.make (n + 1) 0.0 in
  let ps = Array.make (n + 1) 0.0 in
  let pss = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    let w = float_of_int weights.(i) in
    pw.(i + 1) <- pw.(i) +. w;
    ps.(i + 1) <- ps.(i) +. (w *. values.(i));
    pss.(i + 1) <- pss.(i) +. (w *. values.(i) *. values.(i))
  done;
  (* SSE of the weighted interval [i, j] (inclusive, 0-based). *)
  let sse i j =
    let w = pw.(j + 1) -. pw.(i) in
    let s = ps.(j + 1) -. ps.(i) in
    let ss = pss.(j + 1) -. pss.(i) in
    let e = ss -. (s *. s /. w) in
    if e < 0.0 then 0.0 else e
  in
  (* dp.(c).(j) = min SSE of clustering values[0..j] into c+1 clusters. *)
  let dp = Array.make_matrix k n infinity in
  let back = Array.make_matrix k n 0 in
  for j = 0 to n - 1 do
    dp.(0).(j) <- sse 0 j
  done;
  (* Row c by divide and conquer over j: the optimal split of the prefix
     ending at j never moves left as j grows (SSE satisfies the quadrangle
     inequality), so the middle j's split bounds both halves' searches.
     Each candidate range is scanned in ascending i with a strict [<], the
     same leftmost-argmin rule as the plain O(N²) scan over [c, j], so
     [dp] and [back] match it bit for bit in O(N log N) per row. *)
  let rec row c jlo jhi ilo ihi =
    if jlo <= jhi then begin
      let j = (jlo + jhi) / 2 in
      let prev = dp.(c - 1) in
      let w_j = pw.(j + 1) and s_j = ps.(j + 1) and ss_j = pss.(j + 1) in
      let best = ref infinity and split = ref ilo in
      for i = ilo to min j ihi do
        (* [sse i j], inlined: the same operations in the same order. *)
        let w = w_j -. pw.(i) and s = s_j -. ps.(i) and ss = ss_j -. pss.(i) in
        let e = ss -. (s *. s /. w) in
        let cand = prev.(i - 1) +. if e < 0.0 then 0.0 else e in
        if cand < !best then begin
          best := cand;
          split := i
        end
      done;
      dp.(c).(j) <- !best;
      back.(c).(j) <- !split;
      row c jlo (j - 1) ilo !split;
      row c (j + 1) jhi !split ihi
    end
  in
  for c = 1 to k - 1 do
    row c c (n - 1) c (n - 1)
  done;
  (* Reconstruct boundaries. *)
  let starts = Array.make k 0 in
  let j = ref (n - 1) in
  for c = k - 1 downto 1 do
    let i = back.(c).(!j) in
    starts.(c) <- i;
    j := i - 1
  done;
  starts.(0) <- 0;
  let centers =
    Array.init k (fun c ->
        let lo = starts.(c) in
        let hi = if c = k - 1 then n - 1 else starts.(c + 1) - 1 in
        (ps.(hi + 1) -. ps.(lo)) /. (pw.(hi + 1) -. pw.(lo)))
  in
  let boundaries = Array.map (fun i -> values.(i)) starts in
  { centers; boundaries; cost = dp.(k - 1).(n - 1) }

let assign_index r x =
  (* Nearest center; centers are ascending so a linear scan is fine. *)
  let best = ref 0 and bestd = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (x -. c) in
      if d < !bestd then begin
        bestd := d;
        best := i
      end)
    r.centers;
  !best

let assign r x = r.centers.(assign_index r x)

type propagation = Progress | Fixpoint | Failure

(* [x = j] forbids [y ∈ bad.(j)]; [bad_rev] is the transpose, so [y = j']
   forbids [x ∈ bad_rev.(j')]. *)
type forbidden = { x : int; y : int; bad : Domain.t array; bad_rev : Domain.t array }

type t = {
  nvars : int;
  nvalues : int;
  domains : Domain.t array;
  mutable alldifferent : bool;
  mutable forbidden : forbidden array; (* slots [0, nforbidden) are posted *)
  mutable nforbidden : int;
  (* Transposes of the posted [bad] matrices, keyed by physical identity:
     the many edge constraints sharing one matrix share one transpose. *)
  mutable transposes : (Domain.t array * Domain.t array) list;
  (* ---- Event-driven schedule ---- *)
  (* Watch lists in CSR form: the forbidden constraints on variable [v]
     are [watch.(watch_first.(v)) .. watch.(watch_first.(v+1) - 1)].
     Rebuilt lazily after constraints are posted or dropped. *)
  watch_first : int array;
  mutable watch : int array;
  mutable watches_stale : bool;
  (* FIFO of forbidden constraints due to run (a ring of capacity
     [nforbidden]; [queued] keeps each in it at most once), and whether
     alldifferent is due once that queue drains. *)
  mutable queue : int array;
  mutable queued : bool array;
  mutable head : int;
  mutable len : int;
  mutable alldiff_due : bool;
  mutable progress : bool;
  (* The domains at the end of the last propagation that reached a
     fixpoint. Every constraint was at fixpoint on them, so at the next
     call only the constraints on variables whose domain differs from its
     record are due, whoever changed it — a propagator, a branching
     [Domain.fix], [restore], or a direct write through {!domain}. *)
  last : Domain.t array;
  mutable last_valid : bool;
  mutable forbidden_runs : int;
  mutable alldiff_runs : int;
  (* Incremental alldifferent state: the last maximum matching found, kept
     mutually consistent ([pair_left.(x) = v] iff [pair_right.(v) = x]).
     Never trusted blindly — each propagation validates it against the live
     domains and re-augments only the variables that lost their match, so
     staleness after backtracking or {!reset} is harmless. *)
  pair_left : int array;
  pair_right : int array;
  seen : int array; (* Kuhn DFS visit stamps, one slot per value *)
  mutable stamp : int;
  (* Régin's residual graph over [nvars] variable then [nvalues] value
     vertices, in CSR form, and the buffers of its SCC and reachability
     passes. Sized once: an alldifferent run allocates nothing. *)
  res_first : int array;
  res_adj : int array;
  res_cursor : int array;
  comp : int array;
  reach : bool array;
  bfs : int array;
  scc : Graphs.Scc.workspace;
}

let create ~nvars ~nvalues =
  if nvars <= 0 then invalid_arg "Csp.create: need at least one variable";
  if nvars > nvalues then invalid_arg "Csp.create: more variables than values";
  let total = nvars + nvalues in
  {
    nvars;
    nvalues;
    domains = Array.init nvars (fun _ -> Domain.full nvalues);
    alldifferent = false;
    forbidden = [||];
    nforbidden = 0;
    transposes = [];
    watch_first = Array.make (nvars + 1) 0;
    watch = [||];
    watches_stale = false;
    queue = [||];
    queued = [||];
    head = 0;
    len = 0;
    alldiff_due = false;
    progress = false;
    last = Array.init nvars (fun _ -> Domain.empty nvalues);
    last_valid = false;
    forbidden_runs = 0;
    alldiff_runs = 0;
    pair_left = Array.make nvars (-1);
    pair_right = Array.make nvalues (-1);
    seen = Array.make nvalues (-1);
    stamp = 0;
    res_first = Array.make (total + 1) 0;
    res_adj = Array.make (nvars + (nvars * nvalues)) 0;
    res_cursor = Array.make total 0;
    comp = Array.make total 0;
    reach = Array.make total false;
    bfs = Array.make total 0;
    scc = Graphs.Scc.workspace total;
  }

let nvars t = t.nvars
let nvalues t = t.nvalues
let domain t v = t.domains.(v)
let forbidden_runs t = t.forbidden_runs
let alldiff_runs t = t.alldiff_runs

let restrict t ~var ~allowed = ignore (Domain.keep_only t.domains.(var) allowed)

let add_alldifferent t =
  t.alldifferent <- true;
  t.last_valid <- false

let transpose t bad =
  match List.assq_opt bad t.transposes with
  | Some rev -> rev
  | None ->
      let rev = Array.init t.nvalues (fun _ -> Domain.empty t.nvalues) in
      Array.iteri (fun j row -> Domain.iter (fun j' -> Domain.add rev.(j') j) row) bad;
      t.transposes <- (bad, rev) :: t.transposes;
      rev

let add_forbidden_pairs t ~x ~y ~bad =
  if x < 0 || x >= t.nvars || y < 0 || y >= t.nvars then
    invalid_arg "Csp.add_forbidden_pairs: variable out of range";
  if Array.length bad <> t.nvalues then
    invalid_arg "Csp.add_forbidden_pairs: bad matrix has wrong width";
  let c = { x; y; bad; bad_rev = transpose t bad } in
  if t.nforbidden = Array.length t.forbidden then begin
    let grown = Array.make (max 8 (2 * t.nforbidden)) c in
    Array.blit t.forbidden 0 grown 0 t.nforbidden;
    t.forbidden <- grown;
    t.queue <- Array.make (Array.length grown) 0;
    t.queued <- Array.make (Array.length grown) false
  end;
  t.forbidden.(t.nforbidden) <- c;
  t.nforbidden <- t.nforbidden + 1;
  t.watches_stale <- true;
  t.last_valid <- false

let build_watches t =
  let first = t.watch_first in
  Array.fill first 0 (t.nvars + 1) 0;
  for i = 0 to t.nforbidden - 1 do
    let c = t.forbidden.(i) in
    first.(c.x + 1) <- first.(c.x + 1) + 1;
    first.(c.y + 1) <- first.(c.y + 1) + 1
  done;
  for v = 1 to t.nvars do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  if Array.length t.watch < first.(t.nvars) then t.watch <- Array.make first.(t.nvars) 0;
  let cursor = Array.sub first 0 t.nvars in
  for i = 0 to t.nforbidden - 1 do
    let c = t.forbidden.(i) in
    t.watch.(cursor.(c.x)) <- i;
    cursor.(c.x) <- cursor.(c.x) + 1;
    t.watch.(cursor.(c.y)) <- i;
    cursor.(c.y) <- cursor.(c.y) + 1
  done;
  t.watches_stale <- false

let enqueue t c =
  if not t.queued.(c) then begin
    t.queued.(c) <- true;
    let tail = t.head + t.len in
    t.queue.(if tail >= t.nforbidden then tail - t.nforbidden else tail) <- c;
    t.len <- t.len + 1
  end

(* Variable [v]'s domain shrank: every forbidden constraint on it is due,
   except [except] (a propagator that has just reached its own fixpoint). *)
let[@cloudia.hot] touch t v ~except =
  t.progress <- true;
  for k = t.watch_first.(v) to t.watch_first.(v + 1) - 1 do
    let c = t.watch.(k) in
    if c <> except then enqueue t c
  done

(* ---- Propagators ---- *)

(* Revise [d] against [other]: value j stays in [d] iff some value of
   [other] is compatible, i.e. [other ⊄ conflicts.(j)]. When [other] is a
   singleton {v}, that reduces to removing [singleton_conflicts.(v)] — the
   [d] values [v] rules out — in one bitset operation. *)
let[@cloudia.hot] prune d other ~conflicts ~singleton_conflicts =
  if Domain.is_singleton other then Domain.subtract d singleton_conflicts.(Domain.min_value other)
  else Domain.revise d ~support:other ~conflicts

(* Binary negative-table propagation, arc consistency both ways. Revising
   x against y and then y against the revised x is idempotent (a value j
   left in D(x) keeps its support j', since j in turn supports j'), so the
   constraint does not requeue itself — unless x = y, where the argument
   does not apply. Returns false on a wipe-out. *)
let[@cloudia.hot] propagate_forbidden t ci =
  let c = t.forbidden.(ci) in
  let dx = t.domains.(c.x) and dy = t.domains.(c.y) in
  let except = if c.x = c.y then -1 else ci in
  let changed_x = prune dx dy ~conflicts:c.bad ~singleton_conflicts:c.bad_rev in
  let changed_y = prune dy dx ~conflicts:c.bad_rev ~singleton_conflicts:c.bad in
  if changed_x then touch t c.x ~except;
  if changed_y then touch t c.y ~except;
  if changed_x || changed_y then t.alldiff_due <- t.alldifferent;
  not (Domain.is_empty dx || Domain.is_empty dy)

(* Kuhn augmenting-path DFS from variable [x] over the live domains.
   Values are visited in ascending order, so given identical starting
   state the matching found is deterministic. *)
let rec kuhn_augment t x =
  let d = t.domains.(x) in
  let found = ref false and wi = ref 0 and w = ref 0 in
  while (not !found) && !wi < Domain.word_count d do
    w := Domain.word d !wi;
    while (not !found) && !w <> 0 do
      let low = !w land - !w in
      w := !w lxor low;
      let value = (!wi * Domain.bits_per_word) + Domain.lowest_bit low in
      if t.seen.(value) <> t.stamp then begin
        t.seen.(value) <- t.stamp;
        let owner = t.pair_right.(value) in
        if owner = -1 || kuhn_augment t owner then begin
          t.pair_left.(x) <- value;
          t.pair_right.(value) <- x;
          found := true
        end
      end
    done;
    incr wi
  done;
  !found

(* Restore the cached matching to a maximum matching of the current
   variable/domain bipartite graph: drop pairs whose value left its
   variable's domain, then re-augment only the unmatched variables. Any
   maximum matching yields the same Régin prunings (the filtered edge set
   is matching-invariant), so the incremental matching changes cost, not
   results. Returns false when no perfect matching exists. *)
let[@cloudia.hot] revalidate_matching t =
  for x = 0 to t.nvars - 1 do
    let v = t.pair_left.(x) in
    if v <> -1 && not (Domain.mem t.domains.(x) v) then begin
      t.pair_left.(x) <- -1;
      t.pair_right.(v) <- -1
    end
  done;
  let ok = ref true and x = ref 0 in
  while !ok && !x < t.nvars do
    if t.pair_left.(!x) = -1 then begin
      t.stamp <- t.stamp + 1;
      ok := kuhn_augment t !x
    end;
    incr x
  done;
  !ok

(* Régin's alldifferent filtering: maintain a maximum variable-to-value
   matching; fail if not all variables are matched; then remove every edge
   (x, v) that lies in no maximum matching. Edge classification uses the
   standard residual orientation — matched edges var→value, unmatched
   value→var — under which an unmatched edge survives iff its endpoints
   share an SCC or its value vertex is reachable from a free value. With a
   perfect matching every variable keeps its matched value, so the filter
   never empties a domain. Régin's filter is idempotent: its own prunings
   requeue the binary constraints on the pruned variables, never itself.
   Returns false when no perfect matching exists. *)
let[@cloudia.hot] propagate_alldifferent t =
  if not (revalidate_matching t) then false
  else begin
    let n = t.nvars and m = t.nvalues in
    let total = n + m in
    let pair_left = t.pair_left and first = t.res_first and adj = t.res_adj in
    let cursor = t.res_cursor and reach = t.reach and bfs = t.bfs in
    (* Out-degrees: one matched arc per variable, one arc value→var per
       unmatched domain edge. The member walks below read the domains a
       word at a time (see {!Domain.word}). *)
    Array.fill first 0 (total + 1) 0;
    let w = ref 0 in
    for x = 0 to n - 1 do
      let d = t.domains.(x) in
      first.(x + 1) <- 1;
      for wi = 0 to Domain.word_count d - 1 do
        w := Domain.word d wi;
        while !w <> 0 do
          let low = !w land - !w in
          w := !w lxor low;
          let value = (wi * Domain.bits_per_word) + Domain.lowest_bit low in
          if value <> pair_left.(x) then first.(n + value + 1) <- first.(n + value + 1) + 1
        done
      done
    done;
    for u = 1 to total do
      first.(u) <- first.(u) + first.(u - 1)
    done;
    Array.blit first 0 cursor 0 total;
    for x = 0 to n - 1 do
      let d = t.domains.(x) in
      adj.(first.(x)) <- n + pair_left.(x);
      for wi = 0 to Domain.word_count d - 1 do
        w := Domain.word d wi;
        while !w <> 0 do
          let low = !w land - !w in
          w := !w lxor low;
          let value = (wi * Domain.bits_per_word) + Domain.lowest_bit low in
          if value <> pair_left.(x) then begin
            adj.(cursor.(n + value)) <- x;
            cursor.(n + value) <- cursor.(n + value) + 1
          end
        done
      done
    done;
    ignore (Graphs.Scc.tarjan_csr t.scc ~n:total ~first ~adj ~comp:t.comp : int);
    (* Reachability from the free value vertices. *)
    Array.fill reach 0 total false;
    let tail = ref 0 and head = ref 0 in
    for value = 0 to m - 1 do
      if t.pair_right.(value) = -1 then begin
        reach.(n + value) <- true;
        bfs.(!tail) <- n + value;
        incr tail
      end
    done;
    while !head < !tail do
      let u = bfs.(!head) in
      incr head;
      for k = first.(u) to first.(u + 1) - 1 do
        let w = adj.(k) in
        if not reach.(w) then begin
          reach.(w) <- true;
          bfs.(!tail) <- w;
          incr tail
        end
      done
    done;
    let comp = t.comp and pruned = ref false in
    for x = 0 to n - 1 do
      let d = t.domains.(x) in
      pruned := false;
      for wi = 0 to Domain.word_count d - 1 do
        w := Domain.word d wi;
        while !w <> 0 do
          let low = !w land - !w in
          w := !w lxor low;
          let value = (wi * Domain.bits_per_word) + Domain.lowest_bit low in
          if value <> pair_left.(x) && comp.(x) <> comp.(n + value) && not reach.(n + value)
          then pruned := Domain.remove d value || !pruned
        done
      done;
      if !pruned then touch t x ~except:(-1)
    done;
    true
  end

(* Drain the binary queue; run alldifferent only once it is empty, and
   go back to the binary queue if that pruned anything. *)
let[@cloudia.hot] drain t =
  let ok = ref true in
  while !ok && (t.len > 0 || t.alldiff_due) do
    if t.len > 0 then begin
      let c = t.queue.(t.head) in
      t.head <- (if t.head + 1 = t.nforbidden then 0 else t.head + 1);
      t.len <- t.len - 1;
      t.queued.(c) <- false;
      t.forbidden_runs <- t.forbidden_runs + 1;
      ok := propagate_forbidden t c
    end
    else begin
      t.alldiff_due <- false;
      t.alldiff_runs <- t.alldiff_runs + 1;
      ok := propagate_alldifferent t
    end
  done;
  !ok

(* Every propagator is monotone and contracting, so the fixpoint reached
   from given domains does not depend on the order the propagators run in:
   the schedule changes the work done, never the domains or the status. *)
let propagate t =
  if t.watches_stale then build_watches t;
  t.progress <- false;
  t.head <- 0;
  if not t.last_valid then begin
    for c = 0 to t.nforbidden - 1 do
      enqueue t c
    done;
    t.alldiff_due <- t.alldifferent
  end
  else
    for x = 0 to t.nvars - 1 do
      if not (Domain.equal t.domains.(x) t.last.(x)) then begin
        for k = t.watch_first.(x) to t.watch_first.(x + 1) - 1 do
          enqueue t t.watch.(k)
        done;
        t.alldiff_due <- t.alldifferent
      end
    done;
  if drain t then begin
    for x = 0 to t.nvars - 1 do
      Domain.blit ~src:t.domains.(x) ~dst:t.last.(x)
    done;
    t.last_valid <- true;
    if t.progress then Progress else Fixpoint
  end
  else begin
    (* Leave [last] at the previous fixpoint: the domains a failed run
       leaves behind are not one. *)
    while t.len > 0 do
      t.queued.(t.queue.(t.head)) <- false;
      t.head <- (if t.head + 1 = t.nforbidden then 0 else t.head + 1);
      t.len <- t.len - 1
    done;
    t.alldiff_due <- false;
    Failure
  end

let reset t =
  let full = Domain.full t.nvalues in
  Array.iter (fun d -> Domain.blit ~src:full ~dst:d) t.domains;
  t.nforbidden <- 0;
  t.transposes <- [];
  t.watches_stale <- true;
  t.last_valid <- false
(* The cached matching survives reset on purpose: a matching valid under
   the shrunken domains is still a matching under the refilled ones, so
   the next threshold iteration starts with zero augmenting work. *)

let save t = Array.map Domain.copy t.domains

let restore t snapshot =
  for i = 0 to t.nvars - 1 do
    Domain.blit ~src:snapshot.(i) ~dst:t.domains.(i)
  done

let assignment t =
  if Array.for_all Domain.is_singleton t.domains then
    Some (Array.map Domain.min_value t.domains)
  else None

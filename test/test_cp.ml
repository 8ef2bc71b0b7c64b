open Cp

(* Tests for the CP substrate: bitset domains, propagators, and search. *)

(* ---------- Domain ---------- *)

let test_domain_full_and_size () =
  let d = Domain.full 100 in
  Alcotest.(check int) "size" 100 (Domain.size d);
  Alcotest.(check bool) "mem 0" true (Domain.mem d 0);
  Alcotest.(check bool) "mem 99" true (Domain.mem d 99);
  Alcotest.(check int) "universe" 100 (Domain.universe d)

let test_domain_remove_add () =
  let d = Domain.full 10 in
  Alcotest.(check bool) "removed" true (Domain.remove d 5);
  Alcotest.(check bool) "second removal is no-op" false (Domain.remove d 5);
  Alcotest.(check int) "size" 9 (Domain.size d);
  Domain.add d 5;
  Alcotest.(check int) "restored" 10 (Domain.size d)

let test_domain_fix_singleton () =
  let d = Domain.full 70 in
  Domain.fix d 64;
  Alcotest.(check bool) "singleton" true (Domain.is_singleton d);
  Alcotest.(check int) "min" 64 (Domain.min_value d);
  Alcotest.(check int) "size" 1 (Domain.size d)

let test_domain_word_boundary () =
  (* 63 is the last bit of word 0; 64 the first of word 1. *)
  let d = Domain.empty 130 in
  List.iter (Domain.add d) [ 62; 63; 64; 126; 129 ];
  Alcotest.(check (list int)) "to_list across words" [ 62; 63; 64; 126; 129 ] (Domain.to_list d);
  Alcotest.(check int) "min" 62 (Domain.min_value d)

let test_domain_empty_min_raises () =
  let d = Domain.empty 5 in
  Alcotest.(check bool) "is_empty" true (Domain.is_empty d);
  Alcotest.check_raises "min of empty" Not_found (fun () -> ignore (Domain.min_value d))

let test_domain_copy_independent () =
  let d = Domain.full 10 in
  let c = Domain.copy d in
  ignore (Domain.remove c 3);
  Alcotest.(check bool) "original untouched" true (Domain.mem d 3)

let test_domain_keep_only () =
  let d = Domain.full 10 in
  let changed = Domain.keep_only d (fun v -> v mod 2 = 0) in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check (list int)) "evens" [ 0; 2; 4; 6; 8 ] (Domain.to_list d)

let test_domain_subtract_and_support () =
  let d = Domain.full 8 in
  let bad = Domain.empty 8 in
  List.iter (Domain.add bad) [ 0; 1; 2 ];
  Alcotest.(check bool) "support exists" true (Domain.intersects_complement d bad);
  Alcotest.(check bool) "changed" true (Domain.subtract d bad);
  Alcotest.(check (list int)) "remaining" [ 3; 4; 5; 6; 7 ] (Domain.to_list d);
  let all_bad = Domain.full 8 in
  Alcotest.(check bool) "no support" false (Domain.intersects_complement d all_bad)

(* ---------- Alldifferent propagation ---------- *)

let test_alldifferent_pigeonhole_fails () =
  (* 4 variables over 3 values cannot be all-different... the constructor
     rejects nvars > nvalues, so test 3 vars whose domains shrink to 2
     values. *)
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v < 2);
  Csp.restrict csp ~var:1 ~allowed:(fun v -> v < 2);
  Csp.restrict csp ~var:2 ~allowed:(fun v -> v < 2);
  Alcotest.(check bool) "failure" true (Csp.propagate csp = Csp.Failure)

let test_alldifferent_regin_prunes () =
  (* Classic example: x0 ∈ {0,1}, x1 ∈ {0,1}, x2 ∈ {0,1,2}. Régin filtering
     must remove 0 and 1 from x2. *)
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v <= 1);
  Csp.restrict csp ~var:1 ~allowed:(fun v -> v <= 1);
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "should be consistent"
  | _ -> ());
  Alcotest.(check (list int)) "x2 pruned to {2}" [ 2 ] (Domain.to_list (Csp.domain csp 2))

let test_alldifferent_singleton_propagates () =
  let csp = Csp.create ~nvars:3 ~nvalues:4 in
  Csp.add_alldifferent csp;
  Domain.fix (Csp.domain csp 0) 2;
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "consistent"
  | _ -> ());
  Alcotest.(check bool) "x1 loses 2" false (Domain.mem (Csp.domain csp 1) 2);
  Alcotest.(check bool) "x2 loses 2" false (Domain.mem (Csp.domain csp 2) 2)

(* ---------- Forbidden pairs ---------- *)

let forbidden_matrix nvalues pred =
  Array.init nvalues (fun j ->
      let row = Domain.empty nvalues in
      for j' = 0 to nvalues - 1 do
        if pred j j' then Domain.add row j'
      done;
      row)

let test_forbidden_pairs_prunes_unsupported () =
  (* Value j of x is forbidden with every value of y: x must lose j. *)
  let csp = Csp.create ~nvars:2 ~nvalues:3 in
  let bad = forbidden_matrix 3 (fun j _ -> j = 0) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "x loses 0" [ 1; 2 ] (Domain.to_list (Csp.domain csp 0));
  Alcotest.(check (list int)) "y keeps all" [ 0; 1; 2 ] (Domain.to_list (Csp.domain csp 1))

let test_forbidden_pairs_singleton_fast_path () =
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  (* Forbid (j, j') whenever j' = j + 1. *)
  let bad = forbidden_matrix 4 (fun j j' -> j' = j + 1) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Domain.fix (Csp.domain csp 0) 1;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "y loses 2" [ 0; 1; 3 ] (Domain.to_list (Csp.domain csp 1))

let test_forbidden_pairs_reverse_direction () =
  (* Fixing y must prune x through the transposed matrix. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  let bad = forbidden_matrix 4 (fun j j' -> j' = 3 && j <= 1) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Domain.fix (Csp.domain csp 1) 3;
  (match Csp.propagate csp with Csp.Failure -> Alcotest.fail "consistent" | _ -> ());
  Alcotest.(check (list int)) "x loses 0,1" [ 2; 3 ] (Domain.to_list (Csp.domain csp 0))

let test_forbidden_all_pairs_fails () =
  let csp = Csp.create ~nvars:2 ~nvalues:2 in
  let bad = forbidden_matrix 2 (fun _ _ -> true) in
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad;
  Alcotest.(check bool) "failure" true (Csp.propagate csp = Csp.Failure)

(* ---------- Search ---------- *)

let test_search_nqueens n expected_solvable =
  (* N-queens via alldifferent on columns + forbidden diagonal pairs. *)
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      let diff = k - i in
      let bad = forbidden_matrix n (fun j j' -> abs (j - j') = diff) in
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad
    done
  done;
  match Search.solve csp with
  | Search.Sat solution, _ ->
      Alcotest.(check bool) "expected solvable" true expected_solvable;
      (* Verify the solution is a valid n-queens placement. *)
      for i = 0 to n - 1 do
        for k = i + 1 to n - 1 do
          Alcotest.(check bool) "columns differ" true (solution.(i) <> solution.(k));
          Alcotest.(check bool) "diagonals differ" true
            (abs (solution.(i) - solution.(k)) <> k - i)
        done
      done
  | Search.Unsat, _ -> Alcotest.(check bool) "expected unsolvable" false expected_solvable
  | Search.Timeout, _ -> Alcotest.fail "unexpected timeout"

let test_nqueens_6 () = test_search_nqueens 6 true
let test_nqueens_8 () = test_search_nqueens 8 true
let test_nqueens_3_unsat () = test_search_nqueens 3 false

let test_search_restores_domains () =
  let csp = Csp.create ~nvars:3 ~nvalues:3 in
  Csp.add_alldifferent csp;
  let before = List.map (fun v -> Domain.to_list (Csp.domain csp v)) [ 0; 1; 2 ] in
  let _ = Search.solve csp in
  let after = List.map (fun v -> Domain.to_list (Csp.domain csp v)) [ 0; 1; 2 ] in
  Alcotest.(check (list (list int))) "domains restored" before after

let test_search_node_limit_timeout () =
  (* A hard instance with node_limit 1 must report Timeout. 12-queens root
     propagation alone cannot solve it. *)
  let n = 12 in
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      let diff = k - i in
      let bad = forbidden_matrix n (fun j j' -> abs (j - j') = diff) in
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad
    done
  done;
  match Search.solve ~node_limit:1 csp with
  | Search.Timeout, stats -> Alcotest.(check bool) "at most 1 node" true (stats.Search.nodes <= 1)
  | Search.Sat _, _ -> Alcotest.fail "cannot solve 12-queens in one node"
  | Search.Unsat, _ -> Alcotest.fail "12-queens is satisfiable"

let test_search_value_order_respected () =
  (* With no constraints beyond alldifferent, descending value order must
     assign the largest values first. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  Csp.add_alldifferent csp;
  let value_order ~var:_ values = List.rev values in
  match Search.solve ~value_order csp with
  | Search.Sat s, _ ->
      Alcotest.(check int) "x0 takes max" 3 s.(0);
      Alcotest.(check int) "x1 takes next" 2 s.(1)
  | _ -> Alcotest.fail "trivially satisfiable"

let test_search_sudoku_row () =
  (* A line of 9 cells with some fixed: alldifferent completes the rest. *)
  let csp = Csp.create ~nvars:9 ~nvalues:9 in
  Csp.add_alldifferent csp;
  let fixed = [ (0, 3); (4, 7); (8, 0) ] in
  List.iter (fun (v, value) -> Domain.fix (Csp.domain csp v) value) fixed;
  match Search.solve csp with
  | Search.Sat s, _ ->
      List.iter (fun (v, value) -> Alcotest.(check int) "fixed kept" value s.(v)) fixed;
      let sorted = Array.copy s in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" (Array.init 9 (fun i -> i)) sorted
  | _ -> Alcotest.fail "satisfiable"

(* Subgraph isomorphism through the CSP encoding: map a 4-cycle into a
   graph that contains one. *)
let test_sip_via_csp () =
  let open Graphs in
  let pattern = Templates.ring ~n:4 in
  (* Target: 6 nodes, ring 0-1-2-3 plus pendant 4, 5. *)
  let target =
    Digraph.create ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 4); (4, 5) ]
  in
  let csp = Csp.create ~nvars:4 ~nvalues:6 in
  Csp.add_alldifferent csp;
  Array.iter
    (fun (i, i') ->
      let bad =
        forbidden_matrix 6 (fun j j' -> not (Digraph.mem_edge target j j'))
      in
      Csp.add_forbidden_pairs csp ~x:i ~y:i' ~bad)
    (Digraph.edges pattern);
  match Search.solve csp with
  | Search.Sat s, _ ->
      Array.iter
        (fun (i, i') ->
          Alcotest.(check bool) "edge preserved" true (Digraph.mem_edge target s.(i) s.(i')))
        (Digraph.edges pattern)
  | _ -> Alcotest.fail "the 4-cycle embeds into the target"

let test_sip_unsat_via_csp () =
  (* A 4-cycle cannot embed into a path. *)
  let open Graphs in
  let pattern = Templates.ring ~n:4 in
  let target = Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let csp = Csp.create ~nvars:4 ~nvalues:5 in
  Csp.add_alldifferent csp;
  Array.iter
    (fun (i, i') ->
      let bad = forbidden_matrix 5 (fun j j' -> not (Digraph.mem_edge target j j')) in
      Csp.add_forbidden_pairs csp ~x:i ~y:i' ~bad)
    (Digraph.edges pattern);
  match Search.solve csp with
  | Search.Unsat, _ -> ()
  | Search.Sat _, _ -> Alcotest.fail "no 4-cycle in a path"
  | Search.Timeout, _ -> Alcotest.fail "tiny instance cannot time out"

(* ---------- Value-interchangeability classes ---------- *)

(* Two classes of two values each ({0,1} and {2,3}); the forbidden matrix
   depends only on the class, so classmates are genuinely interchangeable
   under every posted constraint, as value_classes requires. *)
let cross_class_bad = forbidden_matrix 4 (fun j j' -> j / 2 <> j' / 2)

let test_search_value_classes_prune_unsat () =
  (* Triangle of vars forced into one class of 2 values but needing 3
     distinct values: unsatisfiable, and the refutation needs search (root
     propagation is arc-consistent). Symmetry breaking must reach the same
     Unsat while branching on at most one value per class. *)
  let build () =
    let csp = Csp.create ~nvars:3 ~nvalues:4 in
    Csp.add_alldifferent csp;
    List.iter
      (fun (x, y) -> Csp.add_forbidden_pairs csp ~x ~y ~bad:cross_class_bad)
      [ (0, 1); (1, 2); (0, 2) ];
    csp
  in
  let plain, plain_stats = Search.solve (build ()) in
  let sym, sym_stats =
    Search.solve ~value_classes:[| 0; 0; 1; 1 |] (build ())
  in
  Alcotest.(check bool) "plain unsat" true (plain = Search.Unsat);
  Alcotest.(check bool) "sym unsat" true (sym = Search.Unsat);
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes with classes (%d < %d)" sym_stats.Search.nodes
       plain_stats.Search.nodes)
    true
    (sym_stats.Search.nodes < plain_stats.Search.nodes)

let test_search_value_classes_complete_sat () =
  (* Two vars that must land in the same class with distinct values: a
     solution exists and representative-only branching must still find it.
     A root restriction makes the classes asymmetric; entry-time refinement
     splits them so completeness survives. *)
  let csp = Csp.create ~nvars:2 ~nvalues:4 in
  Csp.add_alldifferent csp;
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad:cross_class_bad;
  Csp.restrict csp ~var:0 ~allowed:(fun v -> v <> 0);
  match Search.solve ~value_classes:[| 0; 0; 1; 1 |] csp with
  | Search.Sat s, _ ->
      Alcotest.(check bool) "distinct" true (s.(0) <> s.(1));
      Alcotest.(check bool) "same class" true (s.(0) / 2 = s.(1) / 2);
      Alcotest.(check bool) "restriction respected" true (s.(0) <> 0)
  | _ -> Alcotest.fail "expected sat under symmetry breaking"

let test_csp_reset_reuses_alldifferent () =
  (* The threshold-iterating solver's reuse pattern: post an over-tight
     iteration's forbidden pairs, fail, reset, and re-solve — the binary
     constraints must be gone while alldifferent (and its warm matching)
     still holds. *)
  let csp = Csp.create ~nvars:2 ~nvalues:3 in
  Csp.add_alldifferent csp;
  (match Search.solve csp with
  | Search.Sat s, _ -> Alcotest.(check bool) "distinct before" true (s.(0) <> s.(1))
  | _ -> Alcotest.fail "satisfiable before tightening");
  Csp.add_forbidden_pairs csp ~x:0 ~y:1 ~bad:(forbidden_matrix 3 (fun _ _ -> true));
  Alcotest.(check bool) "tightened iteration fails" true (Csp.propagate csp = Csp.Failure);
  Csp.reset csp;
  (match Csp.propagate csp with
  | Csp.Failure -> Alcotest.fail "reset must clear the forbidden pairs"
  | _ -> ());
  Alcotest.(check int) "domains refilled" 3 (Domain.size (Csp.domain csp 0));
  match Search.solve csp with
  | Search.Sat s, _ -> Alcotest.(check bool) "alldifferent survives reset" true (s.(0) <> s.(1))
  | _ -> Alcotest.fail "satisfiable after reset"

(* ---------- Propagation: reference fixpoint and allocation ---------- *)

(* A naive reference for [Csp.propagate]: pairwise arc-consistency
   revision of every forbidden pair plus generalized arc consistency for
   alldifferent (a value stays iff some injective assignment within the
   domains uses it, found by enumerating them all), repeated until nothing
   changes. Domains are bool arrays; the result is the fixpoint and the
   status [Csp.propagate] must report on the same input. *)
let reference_fixpoint ~nvalues ~alldiff ~pairs domains =
  let nvars = Array.length domains in
  let d = Array.map Array.copy domains in
  let removed = ref false in
  let remove x v =
    if d.(x).(v) then begin
      d.(x).(v) <- false;
      removed := true
    end
  in
  let revise x y ok =
    for v = 0 to nvalues - 1 do
      if d.(x).(v) then begin
        let supported = ref false in
        for w = 0 to nvalues - 1 do
          if d.(y).(w) && ok v w then supported := true
        done;
        if not !supported then remove x v
      end
    done
  in
  let gac () =
    let used = Array.make nvalues false and support = Array.make_matrix nvars nvalues false in
    let assignment = Array.make nvars 0 in
    let rec go x =
      if x = nvars then Array.iteri (fun x v -> support.(x).(v) <- true) assignment
      else
        for v = 0 to nvalues - 1 do
          if d.(x).(v) && not used.(v) then begin
            used.(v) <- true;
            assignment.(x) <- v;
            go (x + 1);
            used.(v) <- false
          end
        done
    in
    go 0;
    for x = 0 to nvars - 1 do
      for v = 0 to nvalues - 1 do
        if not support.(x).(v) then remove x v
      done
    done
  in
  let changed = ref false and continue = ref true in
  while !continue do
    removed := false;
    List.iter
      (fun (x, y, bad) ->
        revise x y (fun v w -> not bad.(v).(w));
        revise y x (fun w v -> not bad.(v).(w)))
      pairs;
    if alldiff then gac ();
    if !removed then changed := true else continue := false
  done;
  let constrained x = alldiff || List.exists (fun (a, b, _) -> a = x || b = x) pairs in
  let wiped = ref false in
  Array.iteri (fun x dx -> if constrained x && not (Array.exists Fun.id dx) then wiped := true) d;
  ((if !wiped then Csp.Failure else if !changed then Csp.Progress else Csp.Fixpoint), d)

let status_name = function Csp.Failure -> "failure" | Progress -> "progress" | Fixpoint -> "fixpoint"

let read_domains csp =
  Array.init (Csp.nvars csp) (fun x ->
      Array.init (Csp.nvalues csp) (fun v -> Domain.mem (Csp.domain csp x) v))

(* One random scenario: a CSP with ≤ 6 variables over ≤ 8 values, random
   forbidden matrices and (usually) alldifferent, driven through a random
   sequence of direct domain edits (shrinking and growing), branching-like
   fixes, save/restore and reset. Before every propagation the reference
   runs on the very same domains; the statuses must agree, and so must
   the domains unless the run failed (what a failed run leaves behind is
   unspecified). *)
let propagate_matches_reference seed =
  let rng = Prng.create seed in
  let nvars = 1 + Prng.int rng 6 in
  let nvalues = nvars + Prng.int rng (9 - nvars) in
  let csp = Csp.create ~nvars ~nvalues in
  let alldiff = Prng.int rng 4 > 0 in
  if alldiff then Csp.add_alldifferent csp;
  let post () =
    let density = Prng.float rng 0.6 in
    List.init
      (Prng.int rng (if nvars < 2 then 1 else 9))
      (fun _ ->
        let x = Prng.int rng nvars in
        let y = (x + 1 + Prng.int rng (nvars - 1)) mod nvars in
        let bad = Array.init nvalues (fun _ -> Array.init nvalues (fun _ -> Prng.uniform rng < density)) in
        Csp.add_forbidden_pairs csp ~x ~y ~bad:(forbidden_matrix nvalues (fun v w -> bad.(v).(w)));
        (x, y, bad))
  in
  let pairs = ref (post ()) in
  let snapshots = ref [ Csp.save csp ] in
  let ok = ref true in
  for _ = 1 to 12 do
    (match Prng.int rng 6 with
    | 0 ->
        (* Branch: fix a variable to one of its values. *)
        let x = Prng.int rng nvars in
        let members = Domain.to_list (Csp.domain csp x) in
        if members <> [] then Domain.fix (Csp.domain csp x) (List.nth members (Prng.int rng (List.length members)))
    | 1 -> ignore (Domain.remove (Csp.domain csp (Prng.int rng nvars)) (Prng.int rng nvalues))
    | 2 -> Domain.add (Csp.domain csp (Prng.int rng nvars)) (Prng.int rng nvalues)
    | 3 -> Csp.restore csp (List.nth !snapshots (Prng.int rng (List.length !snapshots)))
    | 4 ->
        Csp.reset csp;
        pairs := post ();
        snapshots := [ Csp.save csp ]
    | _ -> ());
    let before = read_domains csp in
    let got = Csp.propagate csp in
    let expected, fixpoint = reference_fixpoint ~nvalues ~alldiff ~pairs:!pairs before in
    if got <> expected then begin
      ok := false;
      QCheck.Test.fail_reportf "seed %d: status %s, reference %s" seed (status_name got)
        (status_name expected)
    end;
    if got <> Csp.Failure then begin
      if read_domains csp <> fixpoint then begin
        ok := false;
        QCheck.Test.fail_reportf "seed %d: domains differ from the reference fixpoint" seed
      end;
      snapshots := Csp.save csp :: !snapshots
    end
  done;
  !ok

let test_propagate_allocates_nothing () =
  (* 8-queens: alldifferent plus 28 forbidden pairs. Once the first
     propagation has built the watch lists, a branch-and-propagate cycle
     must not touch the minor heap. *)
  let n = 8 in
  let csp = Csp.create ~nvars:n ~nvalues:n in
  Csp.add_alldifferent csp;
  for i = 0 to n - 1 do
    for k = i + 1 to n - 1 do
      Csp.add_forbidden_pairs csp ~x:i ~y:k ~bad:(forbidden_matrix n (fun j j' -> abs (j - j') = k - i))
    done
  done;
  ignore (Csp.propagate csp : Csp.propagation);
  let root = Csp.save csp in
  let cycle () =
    for v = 0 to n - 1 do
      Csp.restore csp root;
      Domain.fix (Csp.domain csp 0) v;
      ignore (Csp.propagate csp : Csp.propagation);
      Domain.fix (Csp.domain csp 1) ((v + 3) mod n);
      ignore (Csp.propagate csp : Csp.propagation)
    done
  in
  cycle ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1600 propagations allocated %.0f words" words)
    true (words < 100.)

let qcheck_props =
  [
    QCheck.Test.make ~name:"word walk visits the members in order" ~count:200
      QCheck.(list (int_range 0 129))
      (fun values ->
        (* 130 values span three words, so every word's top bit is hit. *)
        let d = Domain.empty 130 in
        List.iter (Domain.add d) (62 :: 125 :: values);
        let walked = ref [] in
        for wi = 0 to Domain.word_count d - 1 do
          let w = ref (Domain.word d wi) in
          while !w <> 0 do
            let low = !w land - !w in
            w := !w lxor low;
            walked := ((wi * Domain.bits_per_word) + Domain.lowest_bit low) :: !walked
          done
        done;
        let members = List.filter (Domain.mem d) (List.init 130 Fun.id) in
        List.rev !walked = members && Domain.to_list d = members
        && Domain.min_value d = List.hd members);
    QCheck.Test.make ~name:"revise removes exactly the unsupported values" ~count:200 QCheck.int
      (fun seed ->
        let rng = Prng.create seed in
        let n = 1 + Prng.int rng 130 in
        let random_set density =
          let s = Domain.empty n in
          for v = 0 to n - 1 do
            if Prng.uniform rng < density then Domain.add s v
          done;
          s
        in
        let d = random_set 0.7 and support = random_set (Prng.float rng 0.3) in
        let conflicts = Array.init n (fun _ -> random_set (0.6 +. Prng.float rng 0.4)) in
        let expected =
          List.filter (fun j -> Domain.intersects_complement support conflicts.(j)) (Domain.to_list d)
        in
        let before = Domain.size d in
        let changed = Domain.revise d ~support ~conflicts in
        Domain.to_list d = expected && changed = (List.length expected < before));
    QCheck.Test.make ~name:"propagate matches the reference fixpoint" ~count:300 QCheck.int
      propagate_matches_reference;
    QCheck.Test.make ~name:"search solutions satisfy alldifferent" ~count:50
      QCheck.(pair small_int (int_range 2 8))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let csp = Csp.create ~nvars:n ~nvalues:(n + Prng.int rng 3) in
        Csp.add_alldifferent csp;
        match Search.solve csp with
        | Search.Sat s, _ ->
            let seen = Hashtbl.create n in
            Array.for_all
              (fun v ->
                if Hashtbl.mem seen v then false
                else begin
                  Hashtbl.add seen v ();
                  true
                end)
              s
        | _ -> false);
    QCheck.Test.make ~name:"domain subtract never grows" ~count:200
      QCheck.(pair (list (int_range 0 62)) (list (int_range 0 62)))
      (fun (keep, bad_values) ->
        let d = Domain.empty 63 in
        List.iter (Domain.add d) keep;
        let bad = Domain.empty 63 in
        List.iter (Domain.add bad) bad_values;
        let before = Domain.size d in
        ignore (Domain.subtract d bad);
        Domain.size d <= before);
  ]

let suite =
  [
    Alcotest.test_case "domain full and size" `Quick test_domain_full_and_size;
    Alcotest.test_case "domain remove/add" `Quick test_domain_remove_add;
    Alcotest.test_case "domain fix singleton" `Quick test_domain_fix_singleton;
    Alcotest.test_case "domain word boundary" `Quick test_domain_word_boundary;
    Alcotest.test_case "domain empty min raises" `Quick test_domain_empty_min_raises;
    Alcotest.test_case "domain copy independent" `Quick test_domain_copy_independent;
    Alcotest.test_case "domain keep_only" `Quick test_domain_keep_only;
    Alcotest.test_case "domain subtract and support" `Quick test_domain_subtract_and_support;
    Alcotest.test_case "alldifferent pigeonhole" `Quick test_alldifferent_pigeonhole_fails;
    Alcotest.test_case "alldifferent Régin pruning" `Quick test_alldifferent_regin_prunes;
    Alcotest.test_case "alldifferent singleton" `Quick test_alldifferent_singleton_propagates;
    Alcotest.test_case "forbidden pairs prunes unsupported" `Quick
      test_forbidden_pairs_prunes_unsupported;
    Alcotest.test_case "forbidden pairs singleton fast path" `Quick
      test_forbidden_pairs_singleton_fast_path;
    Alcotest.test_case "forbidden pairs reverse direction" `Quick
      test_forbidden_pairs_reverse_direction;
    Alcotest.test_case "forbidden all pairs fails" `Quick test_forbidden_all_pairs_fails;
    Alcotest.test_case "6-queens" `Quick test_nqueens_6;
    Alcotest.test_case "8-queens" `Quick test_nqueens_8;
    Alcotest.test_case "3-queens unsat" `Quick test_nqueens_3_unsat;
    Alcotest.test_case "search restores domains" `Quick test_search_restores_domains;
    Alcotest.test_case "search node limit" `Quick test_search_node_limit_timeout;
    Alcotest.test_case "search value order" `Quick test_search_value_order_respected;
    Alcotest.test_case "sudoku row completion" `Quick test_search_sudoku_row;
    Alcotest.test_case "subgraph isomorphism sat" `Quick test_sip_via_csp;
    Alcotest.test_case "subgraph isomorphism unsat" `Quick test_sip_unsat_via_csp;
    Alcotest.test_case "value classes prune unsat" `Quick test_search_value_classes_prune_unsat;
    Alcotest.test_case "value classes stay complete" `Quick
      test_search_value_classes_complete_sat;
    Alcotest.test_case "csp reset reuse" `Quick test_csp_reset_reuses_alldifferent;
    Alcotest.test_case "propagate allocates nothing" `Quick test_propagate_allocates_nothing;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props

type workspace = {
  index : int array;
  lowlink : int array;
  on_stack : bool array;
  stack : int array; (* Tarjan's component stack *)
  call_node : int array; (* explicit DFS stack: node ... *)
  call_pos : int array; (* ... and its next adjacency slot *)
}

let workspace capacity =
  {
    index = Array.make capacity (-1);
    lowlink = Array.make capacity 0;
    on_stack = Array.make capacity false;
    stack = Array.make capacity 0;
    call_node = Array.make capacity 0;
    call_pos = Array.make capacity 0;
  }

(* Iterative Tarjan over a CSR adjacency, so deep residual graphs cannot
   overflow the stack; every buffer lives in [w]. Components are numbered
   in completion order. *)
let[@cloudia.hot] tarjan_csr w ~n ~first ~adj ~comp =
  if n > Array.length w.index then invalid_arg "Scc.tarjan_csr: workspace too small";
  let index = w.index and lowlink = w.lowlink and on_stack = w.on_stack in
  let stack = w.stack and call_node = w.call_node and call_pos = w.call_pos in
  Array.fill index 0 n (-1);
  let next_index = ref 0 and next_comp = ref 0 in
  let sp = ref 0 and depth = ref 0 and popping = ref false in
  (* Discovering a node (the root, or a child below): number it, push it
     on the component stack and open its DFS frame. Written out at both
     sites because a local closure would box the counters it captures. *)
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack.(!sp) <- root;
      incr sp;
      on_stack.(root) <- true;
      call_node.(0) <- root;
      call_pos.(0) <- first.(root);
      depth := 1;
      while !depth > 0 do
        let top = !depth - 1 in
        let v = call_node.(top) and pos = call_pos.(top) in
        if pos < first.(v + 1) then begin
          let u = adj.(pos) in
          call_pos.(top) <- pos + 1;
          if index.(u) = -1 then begin
            index.(u) <- !next_index;
            lowlink.(u) <- !next_index;
            incr next_index;
            stack.(!sp) <- u;
            incr sp;
            on_stack.(u) <- true;
            call_node.(!depth) <- u;
            call_pos.(!depth) <- first.(u);
            incr depth
          end
          else if on_stack.(u) then lowlink.(v) <- Int.min lowlink.(v) index.(u)
        end
        else begin
          decr depth;
          if !depth > 0 then begin
            let parent = call_node.(!depth - 1) in
            lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            (* Pop the component rooted at v. *)
            popping := true;
            while !popping do
              decr sp;
              let u = stack.(!sp) in
              on_stack.(u) <- false;
              comp.(u) <- !next_comp;
              if u = v then popping := false
            done;
            incr next_comp
          end
        end
      done
    end
  done;
  !next_comp

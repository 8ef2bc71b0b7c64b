type outcome =
  | Mip_optimal of float * float array
  | Mip_feasible of float * float array
  | Mip_infeasible
  | Mip_unbounded

type stats = {
  nodes_explored : int;
  nodes_pruned : int;
  elapsed_seconds : float;
  proven_optimal : bool;
}

let c_nodes = Obs.Counter.make "lp.mip.nodes_explored"
let c_pruned = Obs.Counter.make "lp.mip.nodes_pruned"
let c_incumbents = Obs.Counter.make "lp.mip.incumbents"

let int_tol = 1e-6

let fractionality x =
  let f = x -. Float.round x in
  Float.abs f

let solve ?time_limit ?node_limit ?should_stop ?on_incumbent ?initial_incumbent model =
  Obs.Span.with_ "lp.mip.solve" @@ fun () ->
  let start = Obs.Clock.now_s () in
  let elapsed () = Obs.Clock.now_s () -. start in
  let over_time () =
    (match should_stop with Some f -> f () | None -> false)
    || match time_limit with Some l -> elapsed () > l | None -> false
  in
  let int_vars = Array.of_list (Model.integer_vars model) in
  let incumbent = ref (match initial_incumbent with
    | Some (obj, sol) -> Some (obj, Array.copy sol)
    | None -> None)
  in
  let nodes = ref 0 in
  let pruned = ref 0 in
  let hit_limit = ref false in
  (* Open nodes live on a depth-first stack. A node is the list of
     branching rows accumulated from the root plus its parent's LP bound
     and optimal basis, so the child LP restarts from it (dual simplex
     repair) instead of from scratch. Depth-first dives toward
     integer-feasible leaves — essential when the LP relaxation is weak, as
     the deployment encodings' is: bounds barely discriminate, so
     bound-ordered search rarely finds incumbents. *)
  let stack = ref [] in
  let push bound branches basis = stack := (bound, branches, basis) :: !stack in
  (* An LP abandoned mid-solve by [over_time] carries no bound, so treat it
     exactly like a hit limit: stop branching, keep the incumbent. Models
     past the sparse kernel's row cap ([Too_large]) get the same handling:
     the caller-provided seed is the best this solver can do. *)
  let unbounded =
    match Model.solve_relaxation_basis ~should_stop:over_time model with
    | Simplex.Optimal (bound, _), basis ->
        push bound [] basis;
        false
    | Simplex.Infeasible, _ -> false
    | Simplex.Unbounded, _ -> true
    | exception (Simplex.Aborted | Simplex.Too_large) ->
        hit_limit := true;
        false
  in
  let best_obj () = match !incumbent with Some (o, _) -> o | None -> infinity in
  let record_incumbent obj sol =
    if obj < best_obj () -. 1e-9 then begin
      incumbent := Some (obj, Array.copy sol);
      Obs.Counter.incr c_incumbents;
      match on_incumbent with
      | Some f -> f ~obj ~solution:sol ~elapsed:(elapsed ())
      | None -> ()
    end
  in
  let continue = ref (not unbounded) in
  while !continue do
    if over_time () then begin
      hit_limit := true;
      continue := false
    end
    else
      match node_limit with
      | Some l when !nodes >= l ->
          hit_limit := true;
          continue := false
      | _ -> (
          match !stack with
          | [] -> continue := false
          | (bound, branches, parent_basis) :: rest ->
              stack := rest;
              if bound >= best_obj () -. 1e-9 then
                (* Bound-dominated: only this node can be skipped, since
                   the stack is not ordered by bound. *)
                incr pruned
              else begin
                incr nodes;
                match
                  Model.solve_relaxation_basis ~should_stop:over_time ~extra:branches
                    ~warm_basis:parent_basis model
                with
                | exception (Simplex.Aborted | Simplex.Too_large) ->
                    hit_limit := true;
                    continue := false
                | Simplex.Infeasible, _ -> ()
                | Simplex.Unbounded, _ ->
                    (* Cannot happen if the root was bounded, but guard. *)
                    ()
                | Simplex.Optimal (obj, sol), node_basis ->
                    if obj < best_obj () -. 1e-9 then begin
                      (* Most fractional integer variable. *)
                      let branch_var = ref None and worst = ref int_tol in
                      Array.iter
                        (fun v ->
                          let f = fractionality (Model.value sol v) in
                          if f > !worst then begin
                            worst := f;
                            branch_var := Some v
                          end)
                        int_vars;
                      match !branch_var with
                      | None -> record_incumbent obj sol
                      | Some v ->
                        begin
                        let x = Model.value sol v in
                        let lo = Float.floor x and hi = Float.ceil x in
                        (* Push the branch matching the LP rounding last so
                           depth-first explores it first (the stack pops in
                           reverse push order). Children inherit this node's
                           basis: the branch row extends it block-
                           triangularly, so the kernel re-enters at the
                           parent optimum. *)
                        if x -. lo >= 0.5 then begin
                          push obj ((v, Simplex.Le, lo) :: branches) node_basis;
                          push obj ((v, Simplex.Ge, hi) :: branches) node_basis
                        end
                        else begin
                          push obj ((v, Simplex.Ge, hi) :: branches) node_basis;
                          push obj ((v, Simplex.Le, lo) :: branches) node_basis
                        end
                      end
                    end
                    else
                      (* The LP bound already meets the incumbent: this
                         subtree cannot contain a strict improvement. *)
                      incr pruned
              end)
  done;
  let stats =
    {
      nodes_explored = !nodes;
      nodes_pruned = !pruned;
      elapsed_seconds = elapsed ();
      proven_optimal = not !hit_limit;
    }
  in
  Obs.Counter.add c_nodes !nodes;
  Obs.Counter.add c_pruned !pruned;
  if unbounded then (Mip_unbounded, stats)
  else
    match !incumbent with
    | Some (obj, sol) ->
        if !hit_limit then (Mip_feasible (obj, sol), stats) else (Mip_optimal (obj, sol), stats)
    | None -> (Mip_infeasible, stats)

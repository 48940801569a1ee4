(** ICC-like static auto-parallelization (paper §V-A).

    Models the Intel compiler at [-parallel] with the profitability
    threshold disabled: classic static dependence testing over affine
    subscripts, scalar privatization, sum/min/max/product scalar reductions
    (including register-promoted global scalars), and aggressive inlining
    of pure functions — a call inside the loop is tolerated when the callee
    neither writes memory nor performs I/O.  No array reductions and no
    histograms (the paper notes ICC misses the idioms IDIOMS finds), and no
    ability to analyze pointer-chasing loops. *)

open Dca_analysis

let name = "ICC"

let classify info fi (loop : Loops.loop) : Tool.verdict =
  let pur = Proginfo.purity info in
  if Static_common.loop_does_io info fi loop then Tool.Not_parallel "I/O inside loop"
  else begin
    match
      List.find_opt (fun callee -> not (Purity.pure pur callee)) (Static_common.calls_in fi loop)
    with
    | Some callee -> Tool.Not_parallel (Printf.sprintf "impure call to %s" callee)
    | None ->
        if not (Affine.counted_header (Proginfo.affine fi) loop) then
          Tool.Not_parallel "not a counted loop"
        else begin
          match
            Static_common.scalar_blocker fi loop ~reductions_ok:(fun _ -> true)
          with
          | Some why -> Tool.Not_parallel why
          | None -> begin
              (* exempt register-promotable global-scalar reductions only *)
              let rmws =
                Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop
                |> List.filter (fun r ->
                       match r.Memred.rmw_kind with
                       | Memred.Global_scalar _ -> true
                       | Memred.Array_cell _ -> false)
              in
              match Static_common.memory_blocker fi loop ~exempt_rmws:rmws ~allow_unknown_roots:false with
              | Some why -> Tool.Not_parallel why
              | None -> Tool.Parallel
            end
        end
  end

let tool =
  {
    Tool.tool_name = name;
    tool_static = true;
    tool_analyze = (fun info _ -> Tool.per_loop info (classify info));
  }

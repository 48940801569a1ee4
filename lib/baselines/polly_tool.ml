(** Polly-like polyhedral parallelization (paper §V-A), with
    [-polly-process-unprofitable] so no profitability filtering.

    A loop is parallelizable when it forms a static control part: every
    loop of the nest is a counted loop, there are no calls at all inside
    (Polly rejects non-intrinsic calls), all memory accesses have affine
    subscripts on statically known base objects, scalars are induction /
    private / sum-or-product reductions, and the dependence test proves
    the absence of carried dependences. *)

open Dca_analysis

let name = "Polly"

let classify info fi (loop : Loops.loop) : Tool.verdict =
  if Static_common.loop_does_io info fi loop then Tool.Not_parallel "I/O inside loop"
  else if Static_common.calls_in fi loop <> [] then Tool.Not_parallel "call inside SCoP"
  else if not (Static_common.nest_is_counted fi loop) then
    Tool.Not_parallel "nest is not affine-counted"
  else begin
    match
      Static_common.scalar_blocker fi loop ~reductions_ok:(function
        | Scalars.Rsum | Scalars.Rprod -> true
        | Scalars.Rmin | Scalars.Rmax -> false)
    with
    | Some why -> Tool.Not_parallel why
    | None -> begin
        let rmws =
          Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop
          |> List.filter (fun r ->
                 match (r.Memred.rmw_kind, r.Memred.rmw_op) with
                 | Memred.Global_scalar _, (Scalars.Rsum | Scalars.Rprod) -> true
                 | _ -> false)
        in
        (* every access must be affine inside a SCoP *)
        let accesses = Affine.accesses_of_loop (Proginfo.affine fi) loop in
        match List.find_opt (fun a -> a.Affine.acc_subscript = None) accesses with
        | Some a ->
            Tool.Not_parallel
              (Printf.sprintf "non-affine access at %s" (Dca_frontend.Loc.to_string a.Affine.acc_loc))
        | None -> (
            match Static_common.memory_blocker fi loop ~exempt_rmws:rmws ~allow_unknown_roots:false with
            | Some why -> Tool.Not_parallel why
            | None -> Tool.Parallel)
      end
  end

let tool =
  {
    Tool.tool_name = name;
    tool_static = true;
    tool_analyze = (fun info _ -> Tool.per_loop info (classify info));
  }

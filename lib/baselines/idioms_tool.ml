(** IDIOMS-like constraint-based reduction and histogram detection
    (Ginsbach & O'Boyle, CGO 2017; paper §V-A).

    The tool searches for loops whose entire cross-iteration behavior is a
    set of commutative read-modify-write idioms: scalar reductions, array
    reductions [a\[f(i)\] op= e], and histograms [a\[g(x)\] op= e] with a
    data-dependent subscript.  A loop qualifies when it contains at least
    one such idiom, every other memory access passes the dependence test,
    and remaining scalars are induction or private.  Plain independent
    maps contain no idiom and are not reported — which is why the tool's
    absolute counts in Table III are low. *)

open Dca_analysis

let name = "Idioms"

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
          let classes =
            Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop
          in
          let scalar_reductions =
            List.exists (fun (_, c) -> match c with Scalars.Reduction _ -> true | _ -> false) classes
          in
          match Static_common.scalar_blocker fi loop ~reductions_ok:(fun _ -> true) with
          | Some why -> Tool.Not_parallel why
          | None -> begin
              let rmws = Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop in
              (* a genuine accumulation idiom: a scalar reduction, a global
                 accumulator, a histogram (data-dependent subscript), or an
                 array cell whose subscript does not vary with this loop —
                 NOT a per-iteration update like [a[i] += b[i]] *)
              let accumulates r =
                match r.Memred.rmw_kind with
                | Memred.Global_scalar _ -> true
                | Memred.Array_cell { subscript = None } -> true
                | Memred.Array_cell { subscript = Some aff } ->
                    not (List.exists (fun (t, _) -> t = Affine.Tiv loop.Loops.l_id) aff.Affine.coeffs)
              in
              if (not (List.exists accumulates rmws)) && not scalar_reductions then
                Tool.Not_parallel "no reduction or histogram idiom"
              else begin
                match Static_common.memory_blocker fi loop ~exempt_rmws:rmws ~allow_unknown_roots:false with
                | Some why -> Tool.Not_parallel why
                | None -> Tool.Parallel
              end
            end
        end
  end

let tool =
  {
    Tool.tool_name = name;
    tool_static = true;
    tool_analyze = (fun info _ -> Tool.per_loop info (classify info));
  }

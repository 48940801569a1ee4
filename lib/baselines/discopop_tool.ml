(** DiscoPoP-like baseline (Li et al., JSS 2016; paper §V-A).

    Like the dependence-profiling tool it classifies loops from profiled
    cross-iteration RAWs, but with a different trade-off, mirroring how the
    two tools' columns differ in Table I:

    - induction filtering covers only {e basic} induction variables (no
      generalized scalar classification), and min/max scalar reductions are
      not recognized — so DiscoPoP loses some loops DepProfiling finds;
    - reduction recognition extends to {e array cells} (its do-all pattern
      detection tolerates [a\[f(i)\] += e] updates), so it wins some loops
      DepProfiling misses. *)

open Dca_analysis
open Dca_support

let name = "DiscoPoP"

let filters_of fi (loop : Loops.loop) =
  let basic_iv =
    match Affine.induction_var (Proginfo.affine fi) loop with
    | Some (v, _) -> Intset.singleton v.Dca_ir.Ir.vid
    | None -> Intset.empty
  in
  (* sum/product scalar reductions only *)
  let classes =
    Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop
  in
  let sum_reds =
    List.filter_map
      (fun (vid, c) ->
        match c with
        | Scalars.Reduction (Scalars.Rsum | Scalars.Rprod) -> Some vid
        | _ -> None)
      classes
    |> Intset.of_list
  in
  let tolerated = Intset.union basic_iv sum_reds in
  let rmws =
    Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop
    |> List.filter (fun r ->
           match r.Memred.rmw_op with
           | Scalars.Rsum | Scalars.Rprod -> true
           | Scalars.Rmin | Scalars.Rmax -> false)
  in
  {
    Dynamic_common.fl_scalar_ok = (fun vid -> Intset.mem vid tolerated);
    fl_rmw_pairs = Memred.iid_pairs rmws;
  }

let tool =
  {
    Tool.tool_name = name;
    tool_static = false;
    tool_analyze =
      (fun info profile ->
        match profile with
        | None -> invalid_arg "DiscoPoP requires a dynamic profile"
        | Some p -> Tool.per_loop info (Dynamic_common.classify_with p filters_of info));
  }

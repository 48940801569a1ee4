(** Dependence-profiling baseline in the style of Tournavitis et al.
    (PLDI 2009; paper §V-A): profile-driven dependence detection with
    privatization of WAR/WAW locations, generalized induction-variable
    filtering, and Pottenger-style reduction recognition: scalar
    sum/product/min/max reductions (including register-promoted global
    scalars) and array-cell read-modify-write reductions.

    PLDS traversals defeat the tool exactly as in the paper's Fig. 1(b):
    the [p = p->next] update is a cross-iteration RAW on [p] that no
    filter covers. *)

open Dca_analysis
open Dca_support

let name = "DepProfiling"

let filters_of fi (loop : Loops.loop) =
  let classes =
    Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop
  in
  let tolerated =
    List.filter_map
      (fun (vid, c) ->
        match c with
        | Scalars.Induction | Scalars.Reduction _ -> Some vid
        | Scalars.Private | Scalars.Carried -> None)
      classes
    |> Intset.of_list
  in
  let rmws = Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop in
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
        | None -> invalid_arg "DepProfiling requires a dynamic profile"
        | Some p -> Tool.per_loop info (Dynamic_common.classify_with p filters_of info));
  }

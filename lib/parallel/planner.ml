open Dca_analysis
open Dca_profiling

type strategy = Best_benefit | Among of string list

(* Simulated parallel cost of the loop's whole dynamic extent, scaled from
   the recorded invocations to the loop's totals. *)
let parallel_cost ~machine (lp : Depprof.loop_profile) ~reductions =
  let recorded = lp.Depprof.lp_invocations in
  if recorded = [] then float_of_int lp.Depprof.lp_total_cost
  else begin
    let sim_recorded =
      List.fold_left
        (fun acc inv -> acc +. Machine.makespan machine inv.Depprof.inv_iter_costs ~reductions)
        0.0 recorded
    in
    let seq_recorded =
      List.fold_left
        (fun acc inv -> acc +. Machine.sequential_time inv.Depprof.inv_iter_costs)
        0.0 recorded
    in
    if seq_recorded <= 0.0 then sim_recorded
    else sim_recorded *. (float_of_int lp.Depprof.lp_total_cost /. seq_recorded)
  end

let reductions_of info loop_id =
  match Proginfo.loop_by_id info loop_id with
  | None -> []
  | Some (fi, loop) ->
      let classes =
        Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop
      in
      List.filter_map
        (fun (vid, c) ->
          match c with
          | Scalars.Reduction op ->
              let name =
                match Liveness.var_of_id (Proginfo.live fi) vid with
                | Some v -> v.Dca_ir.Ir.vname
                | None -> Printf.sprintf "v%d" vid
              in
              Some (name, op)
          | _ -> None)
        classes
      @ List.filter_map
          (fun r ->
            match r.Memred.rmw_kind with
            | Memred.Global_scalar slot ->
                let prog = Proginfo.program info in
                let name = prog.Dca_ir.Ir.p_globals.(slot).Dca_ir.Ir.g_var.Dca_ir.Ir.vname in
                Some (name, r.Memred.rmw_op)
            | Memred.Array_cell _ -> None)
          (Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop)

let privates_of info loop_id =
  match Proginfo.loop_by_id info loop_id with
  | None -> []
  | Some (fi, loop) ->
      Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop
      |> List.filter_map (fun (vid, c) ->
             match c with
             | Scalars.Private -> (
                 match Liveness.var_of_id (Proginfo.live fi) vid with
                 | Some v when not v.Dca_ir.Ir.vtemp -> Some v.Dca_ir.Ir.vname
                 | _ -> None)
             | _ -> None)
      |> List.sort_uniq compare

let benefit_of ~machine info profile loop_id =
  match Depprof.loop_profile profile loop_id with
  | None -> neg_infinity
  | Some lp ->
      let reductions = List.length (reductions_of info loop_id) in
      float_of_int lp.Depprof.lp_total_cost -. parallel_cost ~machine lp ~reductions

(* Two loops conflict when some executed instruction had both active —
   i.e. they appear together in a coverage bucket. *)
let conflicts profile a b =
  List.exists
    (fun (stack, _) -> List.mem a stack && List.mem b stack)
    profile.Depprof.pr_buckets

let select ~machine info profile ~detected ~strategy =
  let pool =
    match strategy with
    | Best_benefit -> detected
    | Among ids -> List.filter (fun id -> List.mem id ids) detected
  in
  let scored =
    List.map (fun id -> (id, benefit_of ~machine info profile id)) pool
    |> List.filter (fun (_, b) -> b > 0.0)
    |> List.sort (fun (_, b1) (_, b2) -> compare b2 b1)
  in
  let chosen =
    List.fold_left
      (fun acc (id, _) -> if List.exists (fun c -> conflicts profile c id) acc then acc else id :: acc)
      [] scored
    |> List.rev
  in
  let mk_plan id =
    let label =
      match Proginfo.loop_by_id info id with
      | Some (_, loop) -> Proginfo.loop_label info loop
      | None -> id
    in
    {
      Plan.lp_loop_id = id;
      lp_label = label;
      lp_private = privates_of info id;
      lp_reductions = reductions_of info id;
      lp_fused_group = None;
    }
  in
  { Plan.plan_loops = List.map mk_plan chosen }

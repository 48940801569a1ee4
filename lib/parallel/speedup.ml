open Dca_profiling

type loop_stats = { ls_loop_id : string; ls_seq_cost : float; ls_par_cost : float; ls_saved : float }

type result = { sp_seq : float; sp_par : float; sp_speedup : float; sp_loops : loop_stats list }

let group_sizes plan =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun lp ->
      match lp.Plan.lp_fused_group with
      | Some g -> Hashtbl.replace tbl g (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g))
      | None -> ())
    plan.Plan.plan_loops;
  tbl

let simulate ?extra_parallel ~machine info profile plan =
  ignore info;
  let seq = float_of_int profile.Depprof.pr_total_cost in
  let groups = group_sizes plan in
  let stats =
    List.filter_map
      (fun lp ->
        match Depprof.loop_profile profile lp.Plan.lp_loop_id with
        | None -> None
        | Some loop_prof ->
            (* fused loops share one launch: divide launch overheads by the
               group size *)
            let m =
              match lp.Plan.lp_fused_group with
              | Some g ->
                  let n = float_of_int (max 1 (Hashtbl.find groups g)) in
                  {
                    machine with
                    Machine.m_spawn_cost = machine.Machine.m_spawn_cost /. n;
                    m_barrier_cost = machine.Machine.m_barrier_cost /. n;
                  }
              | None -> machine
            in
            let reductions = List.length lp.Plan.lp_reductions in
            let par = Planner.parallel_cost ~machine:m loop_prof ~reductions in
            let seq_cost = float_of_int loop_prof.Depprof.lp_total_cost in
            Some
              {
                ls_loop_id = lp.Plan.lp_loop_id;
                ls_seq_cost = seq_cost;
                ls_par_cost = par;
                ls_saved = Float.max 0.0 (seq_cost -. par);
              })
      plan.Plan.plan_loops
  in
  let saved = List.fold_left (fun acc s -> acc +. s.ls_saved) 0.0 stats in
  let par_after_loops = Float.max 1.0 (seq -. saved) in
  let par =
    match extra_parallel with
    | None -> par_after_loops
    | Some (fraction, workers) ->
        let f = Float.max 0.0 (Float.min 1.0 fraction) in
        let w = float_of_int (max 1 workers) in
        par_after_loops *. (1.0 -. f) +. (par_after_loops *. f /. w)
  in
  { sp_seq = seq; sp_par = par; sp_speedup = seq /. par; sp_loops = stats }

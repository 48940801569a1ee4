(* Full pipeline on an NPB kernel: detection, baseline comparison,
   planning, and simulated parallel execution — everything Figs. 6/7 do
   for ten benchmarks, narrated for one (CG).

   Run with:  dune exec examples/npb_pipeline.exe [BENCH]                *)

open Dca_experiments

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "CG" in
  let bm =
    match Dca_progs.Registry.find name with
    | Some bm -> bm
    | None ->
        Printf.eprintf "unknown benchmark '%s' (try: dca list)\n" name;
        exit 1
  in
  Printf.printf "=== %s: %s ===\n\n" name bm.Dca_progs.Benchmark.bm_description;

  let ev = Evaluation.evaluate bm in

  (* detection summary *)
  Printf.printf "loops: %d\n" (Evaluation.total_loops ev);
  Printf.printf "DCA commutative: %d\n" (List.length (Evaluation.dca_commutative ev));
  List.iter
    (fun tool ->
      Printf.printf "%-14s: %d\n" tool.Dca_baselines.Tool.tool_name
        (List.length (Evaluation.tool_parallel ev tool.Dca_baselines.Tool.tool_name)))
    Dca_baselines.Registry.all;
  Printf.printf "combined static: %d\n\n" (List.length (Evaluation.combined_static ev));

  (* per-loop detail *)
  print_endline "per-loop DCA verdicts:";
  Dca_core.Report.print ev.Evaluation.ev_dca;

  (* coverage *)
  Printf.printf "\nsequential coverage of DCA-detected loops: %.0f%%\n"
    (100.0 *. Evaluation.coverage ev (Evaluation.dca_commutative ev));
  Printf.printf "sequential coverage of combined static:    %.0f%%\n"
    (100.0 *. Evaluation.coverage ev (Evaluation.combined_static ev));

  (* plan and simulate *)
  let plan = Figures.dca_plan_for ev in
  Printf.printf "\nparallel plan (expert-profitable commutative loops):\n%s\n"
    (Dca_parallel.Codegen.plan_to_string plan);
  let result =
    Dca_parallel.Speedup.simulate ~machine:Evaluation.machine ev.Evaluation.ev_info
      ev.Evaluation.ev_profile plan
  in
  Printf.printf "\nsimulated speedup on 72 workers: %.2fx (paper Fig. 6: %.1fx)\n"
    result.Dca_parallel.Speedup.sp_speedup
    (Paper_data.npb_row name).Paper_data.p_dca_speedup

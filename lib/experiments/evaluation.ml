open Dca_analysis
open Dca_core
open Dca_progs

type t = {
  ev_bm : Benchmark.t;
  ev_info : Proginfo.t;
  ev_dca : Driver.loop_result list;
  ev_profile : Dca_profiling.Depprof.profile;
  ev_tools : (string * Dca_baselines.Tool.result list) list;
}

let machine = Dca_parallel.Machine.default

let evaluate ?(config = Commutativity.default_config) bm =
  let prog = Benchmark.compile bm in
  let info = Proginfo.analyze prog in
  let spec = Commutativity.make_run_spec bm.Benchmark.bm_input in
  let dca = Driver.analyze_program ~config ~spec info in
  let profile =
    Dca_profiling.Depprof.profile_program ~fuel:spec.Commutativity.rs_fuel
      ~input:bm.Benchmark.bm_input info
  in
  let tools =
    List.map
      (fun tool ->
        ( tool.Dca_baselines.Tool.tool_name,
          tool.Dca_baselines.Tool.tool_analyze info (Some profile) ))
      Dca_baselines.Registry.all
  in
  { ev_bm = bm; ev_info = info; ev_dca = dca; ev_profile = profile; ev_tools = tools }

let cache : (string, t) Hashtbl.t = Hashtbl.create 32

let evaluate_cached ?config bm =
  match Hashtbl.find_opt cache bm.Benchmark.bm_name with
  | Some ev -> ev
  | None ->
      let ev = evaluate ?config bm in
      Hashtbl.replace cache bm.Benchmark.bm_name ev;
      ev

let total_loops ev = List.length ev.ev_dca
let dca_commutative ev = Driver.commutative_ids ev.ev_dca

let tool_parallel ev name =
  match List.assoc_opt name ev.ev_tools with
  | Some results -> Dca_baselines.Tool.parallel_ids results
  | None -> invalid_arg ("Evaluation.tool_parallel: unknown tool " ^ name)

let combined_static ev =
  List.concat_map
    (fun tool -> tool_parallel ev tool.Dca_baselines.Tool.tool_name)
    Dca_baselines.Registry.static_tools
  |> List.sort_uniq compare

let expert_loop_ids ev = Benchmark.resolve ev.ev_info ev.ev_bm.Benchmark.bm_expert_loops
let known_sequential_ids ev = Benchmark.resolve ev.ev_info ev.ev_bm.Benchmark.bm_known_sequential
let coverage ev ids = Dca_profiling.Depprof.coverage_of ev.ev_profile ids

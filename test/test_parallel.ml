(* Tests for the machine model, planner and speedup accounting. *)

open Dca_parallel

let machine = Machine.default

let test_makespan_empty () =
  let m = Machine.makespan machine [||] ~reductions:0 in
  Alcotest.(check (float 1e-9)) "empty = overhead" (Machine.launch_overhead machine ~reductions:0) m

let test_makespan_single_worker () =
  let m1 = Machine.with_workers machine 1 in
  let costs = [| 10; 20; 30 |] in
  let span = Machine.makespan m1 costs ~reductions:0 in
  Alcotest.(check bool) "one worker pays the full sum" true
    (span >= Machine.sequential_time costs)

let test_makespan_reduction_overhead () =
  let base = Machine.makespan machine [| 100 |] ~reductions:0 in
  let with_red = Machine.makespan machine [| 100 |] ~reductions:3 in
  Alcotest.(check bool) "reductions cost extra" true (with_red > base)

let prop_makespan_bounds =
  QCheck.Test.make ~count:300 ~name:"makespan is bounded by max-cost and sum-cost"
    QCheck.(pair (list_of_size Gen.(int_range 1 60) (int_bound 1000)) (int_range 1 200))
    (fun (costs, workers) ->
      let costs = Array.of_list costs in
      let m = Machine.with_workers machine workers in
      let span = Machine.makespan m costs ~reductions:0 in
      let overhead = Machine.launch_overhead m ~reductions:0 in
      let maxc = Array.fold_left (fun acc c -> Float.max acc (float_of_int c)) 0.0 costs in
      span >= maxc +. overhead -. 1e-6
      && span <= Machine.sequential_time costs +. overhead +. (float_of_int (Array.length costs) *. m.Machine.m_chunk_cost) +. 1e-6)

(* Note: chunked makespan is NOT monotone in the worker count in general —
   contiguous chunk boundaries shift when ⌈n/P⌉ changes and can group two
   expensive iterations that were previously split.  The properties that do
   hold: enough workers ⇒ one iteration per chunk, and that configuration
   is optimal among all worker counts. *)
let prop_enough_workers_is_optimal =
  QCheck.Test.make ~count:200 ~name:"one-iteration chunks are the floor of the chunked makespan"
    QCheck.(list_of_size Gen.(int_range 1 80) (int_bound 500))
    (fun costs ->
      let costs = Array.of_list costs in
      let n = Array.length costs in
      let chunk_time workers =
        let m = Machine.with_workers machine workers in
        Machine.makespan m costs ~reductions:0 -. Machine.launch_overhead m ~reductions:0
      in
      let saturated = chunk_time n in
      let maxc = Array.fold_left (fun acc c -> Float.max acc (float_of_int c)) 0.0 costs in
      Float.abs (saturated -. (maxc +. machine.Machine.m_chunk_cost)) < 1e-6
      && List.for_all (fun w -> chunk_time w +. 1e-6 >= saturated) [ 1; 2; 8; 16; 64 ])

(* --------------------------------------------------------------- *)
(* Planner and speedup on a real program                             *)
(* --------------------------------------------------------------- *)

let hot_program =
  {|
  float a[64];
  float total;
  void main() {
    int i;
    int r;
    for (r = 0; r < 20; r = r + 1) {
      for (i = 0; i < 64; i = i + 1) { a[i] = a[i] + hrand(i + r * 64) * 0.25; }
    }
    for (i = 0; i < 64; i = i + 1) { total = total + a[i]; }
    print(total);
  }
  |}

let evaluate src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Dca_analysis.Proginfo.analyze prog in
  let profile = Dca_profiling.Depprof.profile_program info in
  let dca = Dca_core.Driver.analyze_program info in
  (info, profile, dca)

let test_planner_avoids_nesting_conflicts () =
  let info, profile, dca = evaluate hot_program in
  let plan =
    Planner.select ~machine info profile
      ~detected:(Dca_core.Driver.commutative_ids dca)
      ~strategy:Planner.Best_benefit
  in
  (* no two selected loops may be dynamically nested *)
  let ids = Plan.loop_ids plan in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s do not co-occur" a b)
              false
              (List.exists
                 (fun (stack, _) -> List.mem a stack && List.mem b stack)
                 profile.Dca_profiling.Depprof.pr_buckets))
        ids)
    ids;
  Alcotest.(check bool) "plan is non-empty" true (ids <> [])

let test_speedup_sane () =
  let info, profile, dca = evaluate hot_program in
  let plan =
    Planner.select ~machine info profile
      ~detected:(Dca_core.Driver.commutative_ids dca)
      ~strategy:Planner.Best_benefit
  in
  let result = Speedup.simulate ~machine info profile plan in
  Alcotest.(check bool) "speedup > 1.5" true (result.Speedup.sp_speedup > 1.5);
  Alcotest.(check bool) "speedup below worker count" true
    (result.Speedup.sp_speedup <= float_of_int machine.Machine.m_workers);
  Alcotest.(check bool) "parallel time below sequential" true
    (result.Speedup.sp_par < result.Speedup.sp_seq)

let test_empty_plan_is_speedup_one () =
  let info, profile, _ = evaluate hot_program in
  let result = Speedup.simulate ~machine info profile Plan.empty in
  Alcotest.(check (float 1e-9)) "no plan, no speedup" 1.0 result.Speedup.sp_speedup

let test_extra_parallel_fraction () =
  let info, profile, _ = evaluate hot_program in
  let base = Speedup.simulate ~machine info profile Plan.empty in
  let restructured =
    Speedup.simulate ~extra_parallel:(0.5, 8) ~machine info profile Plan.empty
  in
  Alcotest.(check bool) "restructuring reduces serial time" true
    (restructured.Speedup.sp_speedup > base.Speedup.sp_speedup);
  (* Amdahl: f=0.5 at 8 workers caps below 1/(0.5 + 0.5/8) *)
  Alcotest.(check bool) "bounded by Amdahl" true
    (restructured.Speedup.sp_speedup <= 1.0 /. (0.5 +. (0.5 /. 8.0)) +. 1e-6)

let test_plan_pragmas () =
  let info, profile, dca = evaluate hot_program in
  let plan =
    Planner.select ~machine info profile
      ~detected:(Dca_core.Driver.commutative_ids dca)
      ~strategy:Planner.Best_benefit
  in
  let text = Codegen.plan_to_string plan in
  Alcotest.(check bool) "pragma text mentions omp" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 4 <= String.length text && (String.sub text i 4 = "#pra" || contains (i + 1))
    in
    contains 0)

let test_unprofitable_not_selected () =
  (* a tiny loop is not worth a launch *)
  let info, profile, dca =
    evaluate "int a[3]; void main() { int i; for (i = 0; i < 3; i = i + 1) { a[i] = i; } printi(a[0]); }"
  in
  let plan =
    Planner.select ~machine info profile
      ~detected:(Dca_core.Driver.commutative_ids dca)
      ~strategy:Planner.Best_benefit
  in
  Alcotest.(check int) "nothing profitable" 0 (List.length plan.Plan.plan_loops)

let suites =
  [
    ( "machine",
      [
        Alcotest.test_case "empty invocation" `Quick test_makespan_empty;
        Alcotest.test_case "single worker" `Quick test_makespan_single_worker;
        Alcotest.test_case "reduction overhead" `Quick test_makespan_reduction_overhead;
        QCheck_alcotest.to_alcotest prop_makespan_bounds;
        QCheck_alcotest.to_alcotest prop_enough_workers_is_optimal;
      ] );
    ( "planner",
      [
        Alcotest.test_case "nesting conflicts" `Quick test_planner_avoids_nesting_conflicts;
        Alcotest.test_case "speedup sane" `Quick test_speedup_sane;
        Alcotest.test_case "empty plan" `Quick test_empty_plan_is_speedup_one;
        Alcotest.test_case "extra parallel fraction" `Quick test_extra_parallel_fraction;
        Alcotest.test_case "pragmas" `Quick test_plan_pragmas;
        Alcotest.test_case "unprofitable" `Quick test_unprofitable_not_selected;
      ] );
  ]

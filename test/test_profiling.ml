(* Tests for the dynamic dependence/cost/coverage profiler. *)

open Dca_analysis
open Dca_profiling

let profile_of ?input src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  (info, Depprof.profile_program ?input info)

let only_loop info =
  match Proginfo.all_loops info with
  | [ (_, l) ] -> l
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let loop_named info func depth =
  Proginfo.all_loops info
  |> List.find_map (fun (_, l) ->
         if l.Loops.l_func = func && l.Loops.l_depth = depth then Some l else None)
  |> function
  | Some l -> l
  | None -> Alcotest.failf "no depth-%d loop in %s" depth func

let has_dep kind p id =
  List.exists (fun d -> d.Depprof.d_kind = kind) (Depprof.deps_of p id)

let test_raw_detected () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; a[0] = 1; for (i = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } printi(a[15]); }"
  in
  let l = only_loop info in
  Alcotest.(check bool) "prefix chain has RAW" true (has_dep Depprof.Raw p l.Loops.l_id)

let test_disjoint_no_mem_raw () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } printi(a[3]); }"
  in
  let l = only_loop info in
  let mem_raws =
    List.filter
      (fun d ->
        d.Depprof.d_kind = Depprof.Raw
        && match d.Depprof.d_loc with Dca_interp.Events.Lheap _ -> true | _ -> false)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check int) "no memory RAW in a map loop" 0 (List.length mem_raws)

let test_war_waw_privatizable () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; int t; for (i = 0; i < 16; i = i + 1) { t = i * 2; a[i] = t; } printi(a[5]); }"
  in
  let l = only_loop info in
  (* t is written before read each iteration: WAW/WAR exist, RAW does not *)
  let deps = Depprof.deps_of p l.Loops.l_id in
  let on_t kind =
    List.exists
      (fun d ->
        d.Depprof.d_kind = kind
        && match d.Depprof.d_loc with Dca_interp.Events.Lreg _ -> true | _ -> false)
      deps
  in
  Alcotest.(check bool) "scalar WAW observed" true (on_t Depprof.Waw);
  (* every scalar RAW is on the induction-variable chain: the dependence
     profiling tool, which filters induction variables, reports the loop
     parallel *)
  let dp =
    Dca_baselines.Depprofiling_tool.tool.Dca_baselines.Tool.tool_analyze info (Some p)
  in
  Alcotest.(check bool) "DP reports the loop parallel" true
    (List.mem l.Loops.l_id (Dca_baselines.Tool.parallel_ids dp))

let test_costs_and_iterations () =
  let info, p =
    profile_of
      "int x; void main() { int i; for (i = 0; i < 10; i = i + 1) { x = x + i; } printi(x); }"
  in
  let l = only_loop info in
  match Depprof.loop_profile p l.Loops.l_id with
  | None -> Alcotest.fail "no profile for the loop"
  | Some lp ->
      Alcotest.(check int) "one invocation" 1 (List.length lp.Depprof.lp_invocations);
      let inv = List.hd lp.Depprof.lp_invocations in
      Alcotest.(check int) "eleven header arrivals" 11 inv.Depprof.inv_iters;
      Alcotest.(check bool) "loop cost positive" true (lp.Depprof.lp_total_cost > 0);
      Alcotest.(check bool) "loop cost below program cost" true
        (lp.Depprof.lp_total_cost < p.Depprof.pr_total_cost)

let test_invocation_count () =
  let info, p =
    profile_of
      {|
      int x;
      void bump() { int k; for (k = 0; k < 3; k = k + 1) { x = x + 1; } }
      void main() { int i; for (i = 0; i < 5; i = i + 1) { bump(); } printi(x); }
      |}
  in
  let l = loop_named info "bump" 1 in
  match Depprof.loop_profile p l.Loops.l_id with
  | Some lp -> Alcotest.(check int) "five invocations" 5 (List.length lp.Depprof.lp_invocations)
  | None -> Alcotest.fail "no profile"

let test_cross_call_attribution () =
  (* accesses made by a callee are attributed to the caller's loop *)
  let info, p =
    profile_of
      {|
      int acc;
      void add_to_acc(int v) { acc = acc + v; }
      void main() { int i; for (i = 0; i < 4; i = i + 1) { add_to_acc(i); } printi(acc); }
      |}
  in
  let l = loop_named info "main" 1 in
  let raw_on_glob =
    List.exists
      (fun d ->
        d.Depprof.d_kind = Depprof.Raw
        && match d.Depprof.d_loc with Dca_interp.Events.Lglob _ -> true | _ -> false)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check bool) "callee's global RMW attributed to the loop" true raw_on_glob

let test_coverage () =
  let info, p =
    profile_of
      {|
      int x;
      void main() {
        int i;
        for (i = 0; i < 100; i = i + 1) { x = x + i * i; }
        printi(x);
      }
      |}
  in
  let l = only_loop info in
  let cov = Depprof.coverage_of p [ l.Loops.l_id ] in
  Alcotest.(check bool) "hot loop covers most of the program" true (cov > 0.8);
  Alcotest.(check (float 1e-9)) "empty set covers nothing" 0.0 (Depprof.coverage_of p []);
  Alcotest.(check bool) "coverage is a fraction" true (cov <= 1.0)

let test_coverage_union_no_double_count () =
  let info, p =
    profile_of
      {|
      int x;
      void main() {
        int i;
        int j;
        for (i = 0; i < 10; i = i + 1) {
          for (j = 0; j < 10; j = j + 1) { x = x + 1; }
        }
        printi(x);
      }
      |}
  in
  let outer = loop_named info "main" 1 and inner = loop_named info "main" 2 in
  let both = Depprof.coverage_of p [ outer.Loops.l_id; inner.Loops.l_id ] in
  let outer_only = Depprof.coverage_of p [ outer.Loops.l_id ] in
  Alcotest.(check (float 1e-9)) "inner nested in outer adds nothing" outer_only both

let test_rng_dependence () =
  let info, p =
    profile_of
      "float x; void main() { dseed(1); int i; for (i = 0; i < 4; i = i + 1) { x = x + drand(); } print(x); }"
  in
  let l = only_loop info in
  let rng_raw =
    List.exists
      (fun d -> d.Depprof.d_loc = Dca_interp.Events.Lrng && d.Depprof.d_kind = Depprof.Raw)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check bool) "drand chains through the generator" true rng_raw

(* ------------------------------------------------------------------ *)
(* Differential check against the reference profiler                  *)
(* ------------------------------------------------------------------ *)

(* A profile as plain data: total cost, buckets as a sorted list, and per
   loop (by id) the total cost, the iterations, and the kept invocations
   and the dependences in order.  The cost pass gives all but the
   dependences; reading them forces the dependence pass. *)
let view_of total buckets loops =
  (total, List.sort compare buckets, List.sort compare loops)

let view (p : Depprof.profile) =
  view_of p.Depprof.pr_total_cost p.Depprof.pr_buckets
    (Hashtbl.fold
       (fun id (lp : Depprof.loop_profile) acc ->
         ( id,
           ( lp.lp_total_cost,
             lp.lp_total_iters,
             List.map (fun (i : Depprof.invocation) -> (i.inv_iters, i.inv_iter_costs)) lp.lp_invocations,
             List.map
               (fun (d : Depprof.dep) ->
                 (Depprof.dep_kind_to_string d.d_kind, d.d_write_iid, d.d_read_iid, d.d_loc))
               (Depprof.deps_of p id) ) )
         :: acc)
       p.Depprof.pr_loops [])

let ref_view (p : Depprof_ref.profile) =
  view_of p.Depprof_ref.pr_total_cost p.Depprof_ref.pr_buckets
    (Hashtbl.fold
       (fun id (lp : Depprof_ref.loop_profile) acc ->
         ( id,
           ( lp.lp_total_cost,
             lp.lp_total_iters,
             List.map (fun (i : Depprof_ref.invocation) -> (i.inv_iters, i.inv_iter_costs)) lp.lp_invocations,
             List.map
               (fun (d : Depprof_ref.dep) ->
                 (Depprof_ref.dep_kind_to_string d.d_kind, d.d_write_iid, d.d_read_iid, d.d_loc))
               lp.lp_deps ) )
         :: acc)
       p.Depprof_ref.pr_loops [])

let check_same_profile name ?input info =
  let total, buckets, loops = view (Depprof.profile_program ?input info) in
  let r_total, r_buckets, r_loops = ref_view (Depprof_ref.profile_program ?input info) in
  Alcotest.(check int) (name ^ ": total cost") r_total total;
  Alcotest.(check (list (pair (list string) int))) (name ^ ": buckets") r_buckets buckets;
  Alcotest.(check (list string)) (name ^ ": loops") (List.map fst r_loops) (List.map fst loops);
  List.iter2
    (fun (id, (rc, ri, rinv, rdeps)) (_, (c, i, inv, deps)) ->
      let what field = Printf.sprintf "%s: %s %s" name id field in
      Alcotest.(check int) (what "total cost") rc c;
      Alcotest.(check int) (what "total iterations") ri i;
      Alcotest.(check bool) (what "invocations") true (rinv = inv);
      Alcotest.(check int) (what "dependence count") (List.length rdeps) (List.length deps);
      Alcotest.(check bool) (what "dependences") true (rdeps = deps))
    r_loops loops

(* Every registry program with its input: recursion (treeadd, perimeter),
   loops containing calls, and inner loops with more invocations than a
   profile keeps. *)
let test_registry_matches_reference () =
  let names = List.map (fun bm -> bm.Dca_progs.Benchmark.bm_name) Dca_progs.Registry.all in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is profiled") true (List.mem n names))
    [ "treeadd"; "perimeter" ];
  List.iter
    (fun bm ->
      let info = Proginfo.analyze (Dca_progs.Benchmark.compile bm) in
      check_same_profile bm.Dca_progs.Benchmark.bm_name ~input:bm.Dca_progs.Benchmark.bm_input info)
    Dca_progs.Registry.all

let test_generated_match_reference () =
  let root = Dca_support.Prng.create 42 in
  for k = 1 to 200 do
    let g = Dca_gen.Gen_program.generate ~max_iters:5 (Dca_support.Prng.split root) in
    let info = Proginfo.analyze (Dca_ir.Lower.compile ~file:"<gen>" g.Dca_gen.Gen_program.g_source) in
    check_same_profile (Printf.sprintf "generated #%d" k) info
  done

(* A loop re-entered by recursion from its own body, returns out of
   nested loops, loops never iterated, and a loop entered 300 times. *)
let edge_src =
  {|
  int acc;
  int a[64];
  int walk(int n) {
    int i;
    int j;
    int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) {
      if (i == 2) { s = s + walk(n - 1); }
      for (j = 0; j < i; j = j + 1) {
        a[i + j] = a[i + j] + s;
        if (a[i + j] > 100) { return s; }
      }
    }
    while (n < 0) { n = n + 1; }
    return s + n;
  }
  void main() {
    int k;
    int j;
    for (k = 0; k < 300; k = k + 1) {
      for (j = 0; j < 3; j = j + 1) { acc = acc + j; }
      if (k < 6) { acc = acc + walk(5); }
    }
    printi(acc);
  }
  |}

let test_edge_cases_match_reference () =
  let info = Proginfo.analyze (Dca_ir.Lower.compile ~file:"<edge>" edge_src) in
  check_same_profile "edge cases" info

(* ------------------------------------------------------------------ *)
(* Locations that are no cell                                          *)
(* ------------------------------------------------------------------ *)

(* An access outside every block traps exactly as in a plain run, in the
   cost pass and in the dependence pass, and the dependence pass
   allocates nothing sized by the stray offset. *)
let test_stray_locations_trap () =
  let trap_of f = match f () with () -> None | exception Dca_interp.Eval.Trap msg -> Some msg in
  List.iter
    (fun (what, body, expected) ->
      let src =
        Printf.sprintf
          "int a[16]; void main() { int i; int s; int *p; s = 0; p = new int[0]; for (i = 0; i < 8; i = i + 1) { a[i] = i; } for (i = 0; i < 8; i = i + 1) { %s } printi(s); }"
          body
      in
      let prog = Dca_ir.Lower.compile ~file:"<stray>" src in
      let plain = trap_of (fun () -> Dca_interp.Eval.run_main (Dca_interp.Eval.create prog)) in
      Alcotest.(check (option string)) (what ^ ": plain run") (Some expected) plain;
      let info = Proginfo.analyze prog in
      let profiled = trap_of (fun () -> ignore (Depprof.profile_program info)) in
      Alcotest.(check (option string)) (what ^ ": cost pass") plain profiled;
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.heap_words in
      let deps = trap_of (fun () -> ignore (Depprof.dependences info)) in
      let grown = (Gc.quick_stat ()).Gc.heap_words - before in
      Alcotest.(check (option string)) (what ^ ": dependence pass") plain deps;
      Alcotest.(check bool)
        (Printf.sprintf "%s: major heap grew by %d words" what grown)
        true (grown < 1_000_000))
    [
      ("negative offset", "s = s + a[i - 5];", "memory trap: out-of-bounds load at block 0 offset -5");
      ( "huge offset",
        "s = s + a[i + 1000000000];",
        "memory trap: out-of-bounds load at block 0 offset 1000000000" );
      ("block without cells", "p[i] = s;", "memory trap: out-of-bounds store at block 1 offset 0");
    ]

(* ------------------------------------------------------------------ *)
(* Who runs the dependence pass                                        *)
(* ------------------------------------------------------------------ *)

let dependence_runs f =
  let c = Dca_support.Telemetry.Ctx.create ~counting:true () in
  let v = Dca_support.Telemetry.with_ctx c f in
  let counters = Dca_support.Telemetry.Ctx.counters c in
  (v, Option.value (List.assoc_opt "profiling.dependence_runs" counters) ~default:0)

(* The plan, the advice and the speedup model read costs and buckets
   only; the baselines read dependences, and a profile runs their pass
   once however often and from however many domains they are read. *)
let test_dependences_on_demand () =
  let bm = Dca_progs.Registry.find_exn "IS" in
  let (), runs =
    dependence_runs (fun () ->
        Dca_core.Session.with_session
          ~options:Dca_core.Session.Options.(default |> with_jobs 1)
          (Dca_core.Session.Benchmark bm)
          (fun s ->
            let plan = Dca_core.Session.plan s in
            ignore (Dca_core.Session.advise s);
            ignore
              (Dca_parallel.Speedup.simulate ~machine:Dca_parallel.Machine.default
                 (Dca_core.Session.proginfo s) (Dca_core.Session.profile s) plan)))
  in
  Alcotest.(check int) "plan, advise and speedup run no dependence pass" 0 runs;
  let info = Proginfo.analyze (Dca_progs.Benchmark.compile bm) in
  let input = bm.Dca_progs.Benchmark.bm_input in
  let ids p = Hashtbl.fold (fun id _ acc -> id :: acc) p.Depprof.pr_loops [] |> List.sort compare in
  let p, runs = dependence_runs (fun () -> Depprof.profile_program ~input info) in
  Alcotest.(check int) "profiling runs no dependence pass" 0 runs;
  let all_deps p = List.map (fun id -> (id, Depprof.deps_of p id)) (ids p) in
  let first, runs = dependence_runs (fun () -> all_deps p) in
  let again, more = dependence_runs (fun () -> all_deps p) in
  Alcotest.(check int) "reading every loop's dependences runs one pass" 1 runs;
  Alcotest.(check int) "reading them again runs none" 0 more;
  Alcotest.(check bool) "the same dependences both times" true (first = again);
  Alcotest.(check bool) "IS carries dependences" true (List.exists (fun (_, d) -> d <> []) first);
  let _, runs = dependence_runs (fun () -> Depprof.deps_of p "no such loop") in
  Alcotest.(check int) "an unknown loop runs no pass" 0 runs;
  let p = Depprof.profile_program ~input info in
  let both, runs =
    dependence_runs (fun () ->
        Dca_support.Pool.with_pool ~jobs:2 (fun pool ->
            Dca_support.Pool.map pool (fun () -> all_deps p) [ (); () ]))
  in
  Alcotest.(check int) "two domains forcing it at once run one pass" 1 runs;
  List.iter (fun d -> Alcotest.(check bool) "both domains read the same" true (d = first)) both

let suites =
  [
    ( "depprof",
      [
        Alcotest.test_case "raw detected" `Quick test_raw_detected;
        Alcotest.test_case "disjoint map" `Quick test_disjoint_no_mem_raw;
        Alcotest.test_case "privatizable scalar" `Quick test_war_waw_privatizable;
        Alcotest.test_case "costs and iterations" `Quick test_costs_and_iterations;
        Alcotest.test_case "invocations" `Quick test_invocation_count;
        Alcotest.test_case "cross-call attribution" `Quick test_cross_call_attribution;
        Alcotest.test_case "coverage" `Quick test_coverage;
        Alcotest.test_case "coverage union" `Quick test_coverage_union_no_double_count;
        Alcotest.test_case "rng dependence" `Quick test_rng_dependence;
        Alcotest.test_case "registry matches reference" `Slow test_registry_matches_reference;
        Alcotest.test_case "generated match reference" `Quick test_generated_match_reference;
        Alcotest.test_case "edge cases match reference" `Quick test_edge_cases_match_reference;
        Alcotest.test_case "stray locations trap" `Quick test_stray_locations_trap;
        Alcotest.test_case "dependences on demand" `Quick test_dependences_on_demand;
      ] );
  ]

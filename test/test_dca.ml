(* End-to-end tests of the DCA pipeline on the paper's motivating examples
   (Fig. 1 and Fig. 2) and on loops with known ground truth. *)

open Dca_analysis
open Dca_core

let analyze ?config ?static src = Driver.analyze_source ?config ?static ~file:"<test>" src

(* The single deepest tested loop result in function [f]. *)
let results_in f (results : Driver.loop_result list) =
  List.filter (fun r -> r.Driver.lr_loop.Loops.l_func = f) results

let check_verdict name expected (r : Driver.loop_result) =
  let actual =
    match r.Driver.lr_decision with
    | Driver.Commutative -> "commutative"
    | Driver.Non_commutative _ -> "non-commutative"
    | Driver.Untestable _ -> "untestable"
    | Driver.Rejected _ -> "rejected"
    | Driver.Subsumed _ -> "subsumed"
    | Driver.Aborted _ -> "aborted"
  in
  Alcotest.(check string)
    (Printf.sprintf "%s (%s: %s)" name r.Driver.lr_label
       (Driver.decision_to_string r.Driver.lr_decision))
    expected actual

(* Fig. 1(a): array map loop. *)
let test_fig1a () =
  let _, results =
    analyze
      {|
      int array[16];
      void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) { array[i] = array[i] + 1; }
        printi(array[7]);
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "array map is commutative" "commutative" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Fig. 1(b): PLDS map loop — defeats dependence analysis, commutative
   under DCA. *)
let test_fig1b () =
  let _, results =
    analyze
      {|
      struct node { int val; struct node *next; }
      struct node *head;
      void build() {
        int i;
        for (i = 0; i < 12; i = i + 1) {
          struct node *n = new struct node;
          n->val = i;
          n->next = head;
          head = n;
        }
      }
      void main() {
        build();
        struct node *ptr = head;
        while (ptr) {
          ptr->val = ptr->val + 1;
          ptr = ptr->next;
        }
        int total = 0;
        struct node *q = head;
        while (q) { total = total + q->val; q = q->next; }
        printi(total);
      }
      |}
  in
  match results_in "main" results with
  | [ map_loop; sum_loop ] ->
      check_verdict "PLDS map is commutative" "commutative" map_loop;
      check_verdict "PLDS sum reduction is commutative" "commutative" sum_loop
  | rs -> Alcotest.failf "expected 2 loops in main, got %d" (List.length rs)

(* A genuinely order-dependent loop: prefix sums (each iteration reads the
   previous element's updated value). *)
let test_prefix_sum_not_commutative () =
  let _, results =
    analyze
      {|
      int a[16];
      void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) { a[i] = i; }
        for (i = 1; i < 16; i = i + 1) { a[i] = a[i] + a[i - 1]; }
        printi(a[15]);
      }
      |}
  in
  match results_in "main" results with
  | [ init_loop; prefix_loop ] ->
      check_verdict "init loop commutative" "commutative" init_loop;
      check_verdict "prefix sum not commutative" "non-commutative" prefix_loop
  | rs -> Alcotest.failf "expected 2 loops, got %d" (List.length rs)

(* Last-writer-wins: the final value depends on iteration order. *)
let test_last_writer_not_commutative () =
  let _, results =
    analyze
      {|
      int last;
      void main() {
        int i;
        for (i = 0; i < 10; i = i + 1) { last = i; }
        printi(last);
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "last writer wins" "non-commutative" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Scalar reduction: commutative even though dependence-based tools need
   special-casing. *)
let test_float_reduction () =
  let _, results =
    analyze
      {|
      float a[32];
      float total;
      void main() {
        int i;
        for (i = 0; i < 32; i = i + 1) { a[i] = hrand(i); }
        for (i = 0; i < 32; i = i + 1) { total = total + a[i] * a[i]; }
        print(total);
      }
      |}
  in
  match results_in "main" results with
  | [ _; red ] -> check_verdict "fp reduction commutative" "commutative" red
  | rs -> Alcotest.failf "expected 2 loops, got %d" (List.length rs)

(* I/O excludes a loop in the static stage (paper §IV-E). *)
let test_io_rejected () =
  let _, results =
    analyze
      {|
      void main() {
        int i;
        for (i = 0; i < 3; i = i + 1) { printi(i); }
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "io loop rejected" "rejected" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Fig. 2: BFS with worklists.  The top-down step pops from the frontier
   (iterator, via promotion) and pushes to the next frontier (payload), and
   the dist updates are commutative. *)
let bfs_source =
  {|
  struct node { int vert; struct node *next; }
  struct list { struct node *head; int size; }

  int nvert;
  struct list *adj[16];     // adjacency lists
  int dist[16];
  struct list *frontier;
  struct list *next_frontier;

  void push(struct list *l, int v) {
    struct node *n = new struct node;
    n->vert = v;
    n->next = l->head;
    l->head = n;
    l->size = l->size + 1;
  }

  int pop(struct list *l) {
    struct node *n = l->head;
    l->head = n->next;
    l->size = l->size - 1;
    return n->vert;
  }

  void add_edge(int a, int b) {
    push(adj[a], b);
    push(adj[b], a);
  }

  void main() {
    nvert = 12;
    int i;
    for (i = 0; i < nvert; i = i + 1) {
      adj[i] = new struct list;
      dist[i] = 1000000;
    }
    frontier = new struct list;
    next_frontier = new struct list;
    // a small graph: a ring plus chords
    for (i = 0; i < nvert; i = i + 1) { add_edge(i, (i + 1) % nvert); }
    add_edge(0, 6);
    add_edge(2, 9);
    dist[0] = 0;
    push(frontier, 0);
    while (frontier->size) {
      // top-down step
      while (frontier->size) {
        int current = pop(frontier);
        struct node *n = adj[current]->head;
        while (n) {
          if (dist[n->vert] > dist[current] + 1) {
            dist[n->vert] = dist[current] + 1;
            push(next_frontier, n->vert);
          }
          n = n->next;
        }
      }
      struct list *tmp = frontier;
      frontier = next_frontier;
      next_frontier = tmp;
    }
    for (i = 0; i < nvert; i = i + 1) { printi(dist[i]); }
  }
  |}

let test_bfs () =
  let _, results = analyze bfs_source in
  let main_loops = results_in "main" results in
  (* find the top-down step: depth-2 loop in main *)
  let top_down =
    List.find_opt
      (fun r ->
        r.Driver.lr_loop.Loops.l_depth = 2)
      main_loops
  in
  match top_down with
  | Some r -> check_verdict "BFS top-down step commutative" "commutative" r
  | None -> Alcotest.fail "no depth-2 loop found in BFS main"

(* The worklist promotion must have happened for the BFS top-down loop. *)
let test_bfs_promotion_recorded () =
  let _, results = analyze bfs_source in
  let top_down =
    List.find (fun r -> r.Driver.lr_loop.Loops.l_depth = 2) (results_in "main" results)
  in
  match top_down.Driver.lr_outcome with
  | Some oc -> Alcotest.(check bool) "promotions or escalation happened" true
      (oc.Commutativity.oc_promotions > 0 || oc.Commutativity.oc_escalated)
  | None -> Alcotest.fail "expected a dynamic outcome"

(* Loops never executed by the workload are untestable (paper §V-C1, MG). *)
let test_unexecuted_loop () =
  let src =
    {|
    int flag;
    int a[4];
    void main() {
      int i;
      if (flag) {
        for (i = 0; i < 4; i = i + 1) { a[i] = i; }
      }
      printi(flag);
    }
    |}
  in
  (* Dynamically the loop never runs (flag is 0), so the dynamic stage
     alone must say untestable ... *)
  let _, dynamic = analyze ~static:false src in
  (match results_in "main" dynamic with
  | [ r ] ->
      check_verdict "unexecuted loop, prover off" "untestable" r;
      Alcotest.(check bool) "provenance dynamic" true (r.Driver.lr_provenance = Driver.Dynamic)
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs));
  (* ... while the static prover decides without executing: a[i] = i is
     affinely independent, so the default pipeline proves it. *)
  let _, proved = analyze src in
  match results_in "main" proved with
  | [ r ] ->
      check_verdict "unexecuted loop, prover on" "commutative" r;
      Alcotest.(check bool) "provenance static" true (r.Driver.lr_provenance = Driver.Static)
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Iterator/payload separation on the motivating shapes. *)
let separation_of src fname =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info fname in
  match Loops.loops fi.Proginfo.fi_forest with
  | [ l ] -> Iterator_rec.separate fi l
  | ls -> Alcotest.failf "expected exactly 1 loop in %s, got %d" fname (List.length ls)

let test_separation_for_loop () =
  let sep =
    separation_of
      "int a[8]; void f() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = a[i] * 2; } } void main() { f(); }"
      "f"
  in
  Alcotest.(check int) "one interface var" 1 (List.length sep.Iterator_rec.sep_interface);
  let iv = List.hd sep.Iterator_rec.sep_interface in
  Alcotest.(check string) "interface is i" "i" iv.Iterator_rec.if_var.Dca_ir.Ir.vname;
  Alcotest.(check bool) "i is pre" true (iv.Iterator_rec.if_phase = Iterator_rec.Pre);
  Alcotest.(check bool) "payload nonempty" false (Iterator_rec.is_iterator_only sep)

let test_separation_plds () =
  let sep =
    separation_of
      {|
      struct node { int val; struct node *next; }
      struct node *head;
      void walk() {
        struct node *p = head;
        while (p) { p->val = p->val + 1; p = p->next; }
      }
      void main() { walk(); }
      |}
      "walk"
  in
  let names = List.map (fun iv -> iv.Iterator_rec.if_var.Dca_ir.Ir.vname) sep.Iterator_rec.sep_interface in
  Alcotest.(check bool) "p is interface" true (List.mem "p" names);
  let p = List.find (fun iv -> iv.Iterator_rec.if_var.Dca_ir.Ir.vname = "p") sep.Iterator_rec.sep_interface in
  Alcotest.(check bool) "p is pre" true (p.Iterator_rec.if_phase = Iterator_rec.Pre)

(* Schedules are permutations. *)
let prop_schedules_bijective =
  QCheck.Test.make ~count:200 ~name:"schedules are bijections"
    QCheck.(pair (int_bound 200) (int_bound 5))
    (fun (n, which) ->
      let sched =
        match which with
        | 0 -> Schedule.Identity
        | 1 -> Schedule.Reverse
        | 2 -> Schedule.Rotate
        | k -> Schedule.Shuffle k
      in
      let p = Schedule.apply sched n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all (fun b -> b) seen)

(* Map loops over arrays are commutative for arbitrary sizes. *)
let prop_map_loops_commutative =
  QCheck.Test.make ~count:12 ~name:"map loops are always commutative"
    QCheck.(int_range 1 40)
    (fun n ->
      let src =
        Printf.sprintf
          {|
          int a[%d];
          void main() {
            int i;
            for (i = 0; i < %d; i = i + 1) { a[i] = a[i] + i * i; }
            printi(a[%d]);
          }
          |}
          n n (n / 2)
      in
      let _, results = analyze src in
      match results_in "main" results with [ r ] -> Driver.is_commutative r | _ -> false)

let suites =
  [
    ( "dca-motivating",
      [
        Alcotest.test_case "fig1a array map" `Quick test_fig1a;
        Alcotest.test_case "fig1b plds map" `Quick test_fig1b;
        Alcotest.test_case "prefix sum" `Quick test_prefix_sum_not_commutative;
        Alcotest.test_case "last writer" `Quick test_last_writer_not_commutative;
        Alcotest.test_case "fp reduction" `Quick test_float_reduction;
        Alcotest.test_case "io rejected" `Quick test_io_rejected;
        Alcotest.test_case "fig2 bfs" `Quick test_bfs;
        Alcotest.test_case "bfs promotion" `Quick test_bfs_promotion_recorded;
        Alcotest.test_case "unexecuted" `Quick test_unexecuted_loop;
      ] );
    ( "dca-separation",
      [
        Alcotest.test_case "for loop" `Quick test_separation_for_loop;
        Alcotest.test_case "plds loop" `Quick test_separation_plds;
        QCheck_alcotest.to_alcotest prop_schedules_bijective;
        QCheck_alcotest.to_alcotest prop_map_loops_commutative;
      ] );
  ]

(* ---------------------------------------------------------------- *)
(* Additional features: hierarchical exploration, advisor, codegen,  *)
(* IR verification                                                   *)
(* ---------------------------------------------------------------- *)

let nest_src =
  {|
  float u[8][8];
  void main() {
    int i;
    int j;
    for (i = 0; i < 8; i = i + 1) {
      for (j = 0; j < 8; j = j + 1) { u[i][j] = itof(i + j); }
    }
    print(u[3][4]);
  }
  |}

let test_hierarchical_subsumes () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" nest_src in
  let info = Proginfo.analyze prog in
  let flat = Driver.analyze_program info in
  let hier = Driver.analyze_program ~hierarchical:true info in
  let count pred rs = List.length (List.filter pred rs) in
  Alcotest.(check int) "flat tests both" 2 (count Driver.is_commutative flat);
  Alcotest.(check int) "hierarchical keeps one commutative" 1 (count Driver.is_commutative hier);
  Alcotest.(check int) "inner is subsumed" 1
    (count (fun r -> match r.Driver.lr_decision with Driver.Subsumed _ -> true | _ -> false) hier);
  (* the subsumed loop names its commutative ancestor *)
  List.iter
    (fun r ->
      match r.Driver.lr_decision with
      | Driver.Subsumed parent ->
          Alcotest.(check bool) "ancestor is a real loop" true
            (List.exists (fun r' -> r'.Driver.lr_loop.Loops.l_id = parent) hier)
      | _ -> ())
    hier

let advisory_src =
  {|
  float a[64];
  float total;
  void main() {
    int i;
    int r;
    for (r = 0; r < 30; r = r + 1) {
      for (i = 0; i < 64; i = i + 1) { a[i] = a[i] + hrand(i + r * 100); }
    }
    total = 0.0;
    for (i = 0; i < 64; i = i + 1) { total = total + a[i]; }
    for (i = 1; i < 64; i = i + 1) { a[i] = a[i] + a[i - 1]; }
    print(total);
    print(a[63]);
  }
  |}

let advise_on src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  let profile = Dca_profiling.Depprof.profile_program info in
  let results = Driver.analyze_program info in
  (info, profile, results, Advisor.advise info profile results)

let test_advisor_recommendations () =
  let _, _, _, advices = advise_on advisory_src in
  let hot = List.hd advices in
  (* the hottest loop is the outer sweep and it should be parallelizable *)
  Alcotest.(check bool) "hot loop first" true (hot.Advisor.ad_coverage > 0.5);
  (match hot.Advisor.ad_recommendation with
  | Advisor.Parallelize | Advisor.Parallelize_with_review _ -> ()
  | _ -> Alcotest.failf "expected a parallelize recommendation, got: %s" (Advisor.to_string hot));
  Alcotest.(check bool) "pragma present" true (hot.Advisor.ad_pragma <> None);
  (* the prefix-sum loop must be kept sequential *)
  let seq =
    List.filter
      (fun a ->
        match a.Advisor.ad_recommendation with Advisor.Keep_sequential _ -> true | _ -> false)
      advices
  in
  Alcotest.(check bool) "an order-dependent loop is kept sequential" true (seq <> []);
  (* report renders *)
  Alcotest.(check bool) "report non-empty" true (String.length (Advisor.report advices) > 100)

let test_advisor_reduction_pragma () =
  let _, _, _, advices = advise_on advisory_src in
  let has_reduction_pragma =
    List.exists
      (fun a ->
        match a.Advisor.ad_pragma with
        | Some p ->
            let rec contains i =
              i + 9 <= String.length p && (String.sub p i 9 = "reduction" || contains (i + 1))
            in
            contains 0
        | None -> false)
      advices
  in
  Alcotest.(check bool) "total reduction clause suggested" true has_reduction_pragma

(* The advisor asks the planner whether a loop pays: on every registry
   program, a loop advised to be parallelized has a positive planner
   benefit, reduction merges included — the test [Planner.select] plans
   by, so the advisory and the plan never disagree on profitability. *)
let test_advisor_agrees_with_planner () =
  List.iter
    (fun bm ->
      Session.with_session
        ~options:Session.Options.(default |> with_jobs 1)
        (Session.Benchmark bm)
        (fun s ->
          let info = Session.proginfo s and profile = Session.profile s in
          List.iter
            (fun a ->
              match a.Advisor.ad_recommendation with
              | Advisor.Parallelize | Advisor.Parallelize_with_review _ ->
                  let id = a.Advisor.ad_loop.Loops.l_id in
                  let benefit =
                    Dca_parallel.Planner.benefit_of ~machine:Dca_parallel.Machine.default info profile id
                  in
                  if not (benefit > 0.0) then
                    Alcotest.failf "%s %s is advised parallel, but its planner benefit is %g"
                      bm.Dca_progs.Benchmark.bm_name a.Advisor.ad_label benefit
              | Advisor.Not_profitable _ | Advisor.Keep_sequential _ -> ())
            (Session.advise s)))
    Dca_progs.Registry.all

let test_codegen_annotation () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" advisory_src in
  let info = Proginfo.analyze prog in
  let profile = Dca_profiling.Depprof.profile_program info in
  let results = Driver.analyze_program info in
  let plan =
    Dca_parallel.Planner.select ~machine:Dca_parallel.Machine.default info profile
      ~detected:(Driver.commutative_ids results) ~strategy:Dca_parallel.Planner.Best_benefit
  in
  let annotated = Dca_parallel.Codegen.annotate_source info ~source:advisory_src plan in
  let count_pragmas s =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           let l = String.trim l in
           String.length l >= 10 && String.sub l 0 10 = "// #pragma")
    |> List.length
  in
  Alcotest.(check int) "one pragma per planned loop" (List.length plan.Dca_parallel.Plan.plan_loops)
    (count_pragmas annotated);
  (* annotated text is a superset: stripping pragma lines recovers the source *)
  let stripped =
    String.split_on_char '\n' annotated
    |> List.filter (fun l ->
           let t = String.trim l in
           not (String.length t >= 10 && String.sub t 0 10 = "// #pragma"))
    |> String.concat "\n"
  in
  Alcotest.(check string) "source preserved" advisory_src stripped

let test_ir_verify_all_benchmarks () =
  List.iter
    (fun bm ->
      match Dca_ir.Ir_verify.verify_program (Dca_progs.Benchmark.compile bm) with
      | Ok () -> ()
      | Error problems ->
          Alcotest.failf "%s: %s" bm.Dca_progs.Benchmark.bm_name (String.concat "; " problems))
    Dca_progs.Registry.all

let test_ir_verify_catches_bad_target () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" "void main() { printi(1); }" in
  let f = Dca_ir.Ir.find_func_exn prog "main" in
  (* corrupt: point the entry terminator out of range *)
  f.Dca_ir.Ir.fblocks.(0).Dca_ir.Ir.bterm <- Dca_ir.Ir.Br 999;
  match Dca_ir.Ir_verify.verify_program prog with
  | Ok () -> Alcotest.fail "expected a verification failure"
  | Error problems -> Alcotest.(check bool) "mentions the target" true
      (List.exists (fun m -> String.length m > 0) problems)

let extension_suites =
  [
    ( "dca-extensions",
      [
        Alcotest.test_case "hierarchical subsumption" `Quick test_hierarchical_subsumes;
        Alcotest.test_case "advisor recommendations" `Quick test_advisor_recommendations;
        Alcotest.test_case "advisor reduction pragma" `Quick test_advisor_reduction_pragma;
        Alcotest.test_case "advisor agrees with the planner" `Slow test_advisor_agrees_with_planner;
        Alcotest.test_case "codegen annotation" `Quick test_codegen_annotation;
        Alcotest.test_case "ir verify benchmarks" `Quick test_ir_verify_all_benchmarks;
        Alcotest.test_case "ir verify catches corruption" `Quick test_ir_verify_catches_bad_target;
      ] );
  ]

let suites = suites @ extension_suites

(* ---------------------------------------------------------------- *)
(* Future-work features: multi-input testing, per-invocation          *)
(* verdicts (context sensitivity), skeleton classification            *)
(* ---------------------------------------------------------------- *)

(* A loop whose commutativity depends on the input: the first integer of
   the input stream decides whether updates collide order-sensitively. *)
let input_dependent_src =
  {|
  int a[16];
  int mode;
  void main() {
    mode = reads();
    int i;
    for (i = 1; i < 16; i = i + 1) {
      if (mode == 1) {
        a[i] = a[i] + a[i - 1] + i;   // carried chain
      } else {
        a[i] = a[i] + i;              // disjoint updates
      }
    }
    printi(a[15]);
  }
  |}

(* One loop through the shared-run engine: its outcome, or the exception
   that ended its run. *)
let test_one_loop config info spec fi sep =
  match Commutativity.test_loops config info spec [ (fi, sep) ] with
  | [ Ok outcome ] -> outcome
  | [ Error (e, bt) ] -> Printexc.raise_with_backtrace e bt
  | _ -> Alcotest.fail "test_loops: expected one result"

let test_multi_input_refutes () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" input_dependent_src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "main" in
  let loop = List.hd (Loops.loops fi.Proginfo.fi_forest) in
  let sep = Iterator_rec.separate fi loop in
  let spec input = Commutativity.make_run_spec ~fuel:50_000_000 input in
  let benign = test_one_loop Commutativity.default_config info (spec [ 0 ]) fi sep in
  let hostile = test_one_loop Commutativity.default_config info (spec [ 1 ]) fi sep in
  Alcotest.(check bool) "benign input: commutative" true
    (benign.Commutativity.oc_verdict = Commutativity.Commutative);
  Alcotest.(check bool) "hostile input: refuted" true
    (match hostile.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  (* combined testing over both inputs must be refuted (paper §V-D) *)
  let combined =
    List.hd
      (Commutativity.test_loop_inputs Commutativity.default_config info
         [ spec [ 0 ]; spec [ 1 ] ]
         [ (fi, sep) ])
  in
  Alcotest.(check bool) "combined inputs: refuted" true
    (match combined.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  Alcotest.(check bool) "combined counts both runs" true (combined.Commutativity.oc_invocations >= 2)

(* Context sensitivity: the same loop commutative in one invocation and
   order-dependent in another. *)
let context_dependent_src =
  {|
  float a[16];
  int chain;
  void work() {
    int i;
    for (i = 1; i < 16; i = i + 1) {
      if (chain == 1) {
        a[i] = a[i] + a[i - 1];
      } else {
        a[i] = a[i] + 1.0;
      }
    }
  }
  void main() {
    chain = 0;
    work();          // first invocation: disjoint updates
    chain = 1;
    work();          // second invocation: carried chain
    print(a[15]);
  }
  |}

let test_per_invocation_verdicts () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" context_dependent_src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "work" in
  let loop = List.hd (Loops.loops fi.Proginfo.fi_forest) in
  let sep = Iterator_rec.separate fi loop in
  let outcome =
    test_one_loop Commutativity.default_config info Commutativity.default_run_spec fi sep
  in
  (* the aggregate verdict is refuted ... *)
  Alcotest.(check bool) "aggregate refuted" true
    (match outcome.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  (* ... and the per-invocation trail shows the mixed contexts *)
  match outcome.Commutativity.oc_per_invocation with
  | [ first; second ] ->
      Alcotest.(check bool) "first context commutative" true (first = Commutativity.Commutative);
      Alcotest.(check bool) "second context flagged" true (second <> Commutativity.Commutative)
  | l -> Alcotest.failf "expected 2 invocation verdicts, got %d" (List.length l)

let skeleton_of src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  (* prover off: skeleton classification consumes the dynamic outcome *)
  let results = Driver.analyze_program ~static:false info in
  let r =
    List.find
      (fun r -> Driver.is_commutative r && r.Driver.lr_loop.Loops.l_depth = 1)
      results
  in
  let fi = Proginfo.func_info info r.Driver.lr_loop.Loops.l_func in
  Skeleton.classify info fi (Option.get r.Driver.lr_outcome)

let test_skeleton_map () =
  let sk = skeleton_of "int a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } printi(a[3]); }" in
  Alcotest.(check string) "map" "map" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "not pointer based" false sk.Skeleton.sk_pointer_based

let test_skeleton_reduction () =
  let sk =
    skeleton_of
      "float a[16]; float t; void main() { int i; for (i = 0; i < 16; i = i + 1) { t = t + a[i]; } print(t); }"
  in
  match sk.Skeleton.sk_shape with
  | Skeleton.Reduction { histogram = false } -> ()
  | s -> Alcotest.failf "expected reduction, got %s" (Skeleton.shape_to_string s)

let test_skeleton_histogram () =
  let sk =
    skeleton_of
      "int h[8]; int k[64]; void main() { int i; for (i = 0; i < 64; i = i + 1) { h[k[i] % 8] = h[k[i] % 8] + 1; } printi(h[1]); }"
  in
  match sk.Skeleton.sk_shape with
  | Skeleton.Reduction { histogram = true } -> ()
  | s -> Alcotest.failf "expected histogram, got %s" (Skeleton.shape_to_string s)

let test_skeleton_worklist_and_plds () =
  let prog = Dca_progs.Benchmark.compile (Dca_progs.Registry.find_exn "treeadd") in
  let info = Proginfo.analyze prog in
  let results = Driver.analyze_program info in
  let r =
    List.find
      (fun r -> r.Driver.lr_loop.Loops.l_func = "tree_add" && Driver.is_commutative r)
      results
  in
  let fi = Proginfo.func_info info "tree_add" in
  let sk = Skeleton.classify info fi (Option.get r.Driver.lr_outcome) in
  Alcotest.(check string) "worklist" "worklist" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "pointer based" true sk.Skeleton.sk_pointer_based

let test_skeleton_plds_map () =
  let sk =
    skeleton_of
      {|
      struct node { float v; struct node *next; }
      struct node *head;
      void main() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
          struct node *n = new struct node;
          n->v = hrand(i);
          n->next = head;
          head = n;
        }
        struct node *p = head;
        while (p) { p->v = p->v * 2.0; p = p->next; }
        print(head->v);
      }
      |}
  in
  ignore sk;
  (* note: [p->v = p->v * 2.0] is textually a product RMW, so the loop
     below uses a plain overwrite to exercise the Map class *)
  (* classify the while loop specifically *)
  let prog =
    Dca_ir.Lower.compile ~file:"<test>"
      {|
      struct node { float v; struct node *next; }
      struct node *head;
      void build() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
          struct node *n = new struct node;
          n->v = hrand(i);
          n->next = head;
          head = n;
        }
      }
      void main() {
        build();
        struct node *p = head;
        int k = 0;
        while (p) { p->v = hrand(k) * 2.0; k = k + 1; p = p->next; }
        print(head->v);
      }
      |}
  in
  let info = Proginfo.analyze prog in
  let results = Driver.analyze_program info in
  let r = List.find (fun r -> r.Driver.lr_loop.Loops.l_func = "main") results in
  let fi = Proginfo.func_info info "main" in
  let sk = Skeleton.classify info fi (Option.get r.Driver.lr_outcome) in
  Alcotest.(check string) "plds map" "map" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "pointer based" true sk.Skeleton.sk_pointer_based

let future_suites =
  [
    ( "dca-future-work",
      [
        Alcotest.test_case "multi-input refutation" `Quick test_multi_input_refutes;
        Alcotest.test_case "per-invocation contexts" `Quick test_per_invocation_verdicts;
        Alcotest.test_case "skeleton: map" `Quick test_skeleton_map;
        Alcotest.test_case "skeleton: reduction" `Quick test_skeleton_reduction;
        Alcotest.test_case "skeleton: histogram" `Quick test_skeleton_histogram;
        Alcotest.test_case "skeleton: worklist" `Quick test_skeleton_worklist_and_plds;
        Alcotest.test_case "skeleton: plds map" `Quick test_skeleton_plds_map;
      ] );
  ]

let suites = suites @ future_suites

(* Tests of the fault-isolation layer: the [Faultpoint] injection
   registry, the evaluator's resource guards, per-loop crash containment
   in the driver, and the degradation paths (a resource exhaustion or an
   injected fault must surface as a classified verdict, never as a dead
   analysis).

   The fault plan is process-global, exactly like the telemetry flags:
   every test that arms a plan disarms it on the way out so suites stay
   independent. *)

module FP = Dca_support.Faultpoint
module T = Dca_support.Telemetry
module Eval = Dca_interp.Eval
module Session = Dca_core.Session
module Commutativity = Dca_core.Commutativity
module Driver = Dca_core.Driver

let compile src = Dca_ir.Lower.compile ~file:"<test>" src
let analyze ?config ?spec ?static src =
  Dca_core.Driver.analyze_source ?config ?spec ?static ~file:"<test>" src

let light_config =
  {
    Commutativity.default_config with
    Commutativity.cc_schedules = Dca_core.Schedule.presets ~shuffles:1 ();
    cc_max_invocations = 2;
  }

(* Session options at [jobs] with [light_config]. *)
let light_options jobs = Session.Options.(default |> with_jobs jobs |> with_config light_config)

(* ------------------------------------------------------------------ *)
(* Fault-plan parsing                                                  *)
(* ------------------------------------------------------------------ *)

let spec site ?ctx ?(nth = 1) ?(repeat = false) action =
  { FP.sp_site = site; sp_ctx = ctx; sp_nth = nth; sp_repeat = repeat; sp_action = action }

let test_parse_roundtrip () =
  let plan = "driver.loop[main:3(d1)]@2+=trap;eval.step=delay:5;store.snapshot@3=fuel" in
  match FP.parse plan with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok specs ->
      Alcotest.(check int) "three entries" 3 (List.length specs);
      let s0 = List.nth specs 0 in
      Alcotest.(check string) "site" "driver.loop" s0.FP.sp_site;
      Alcotest.(check (option string)) "ctx" (Some "main:3(d1)") s0.FP.sp_ctx;
      Alcotest.(check int) "nth" 2 s0.FP.sp_nth;
      Alcotest.(check bool) "repeat" true s0.FP.sp_repeat;
      Alcotest.(check bool) "action" true (s0.FP.sp_action = FP.Trap);
      let s1 = List.nth specs 1 in
      Alcotest.(check int) "default nth" 1 s1.FP.sp_nth;
      Alcotest.(check bool) "delay action" true (s1.FP.sp_action = FP.Delay_ms 5);
      (* the printed plan must parse back to the same specs *)
      (match FP.parse (FP.plan_to_string specs) with
      | Ok specs' -> Alcotest.(check bool) "round-trip" true (specs = specs')
      | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg)

let test_parse_errors () =
  let bad plan =
    match FP.parse plan with
    | Ok _ -> Alcotest.failf "plan %S should not parse" plan
    | Error _ -> ()
  in
  bad "driver.loop";
  bad "driver.loop=explode";
  bad "driver.loop=delay:soon";
  bad "=raise";
  (* arm_string surfaces the same failure as the typed exception the CLI
     maps to exit code 2 *)
  (match FP.arm_string "nope" with
  | exception FP.Bad_plan _ -> ()
  | () -> Alcotest.fail "arm_string of a bad plan must raise Bad_plan");
  Alcotest.(check bool) "a failed arm leaves the registry disarmed" false (FP.armed ())

(* ------------------------------------------------------------------ *)
(* Firing semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_disarmed_is_pass () =
  FP.disarm ();
  let s = FP.site "test.disarmed" in
  for _ = 1 to 100 do
    match FP.hit s with
    | FP.Pass -> ()
    | _ -> Alcotest.fail "disarmed site must never fire"
  done

let test_one_shot_vs_repeat () =
  let s = FP.site "test.oneshot" in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm [ spec "test.oneshot" ~nth:2 FP.Raise ];
      (match FP.hit s with FP.Pass -> () | _ -> Alcotest.fail "hit 1 must pass");
      (match FP.hit s with
      | exception FP.Injected _ -> ()
      | _ -> Alcotest.fail "hit 2 must raise");
      (match FP.hit s with FP.Pass -> () | _ -> Alcotest.fail "hit 3 must pass (one-shot)");
      Alcotest.(check int) "fired once" 1 (FP.fired ());
      FP.arm [ spec "test.oneshot" ~nth:2 ~repeat:true FP.Raise ];
      (match FP.hit s with FP.Pass -> () | _ -> Alcotest.fail "hit 1 must pass");
      (match FP.hit s with
      | exception FP.Injected _ -> ()
      | _ -> Alcotest.fail "hit 2 must raise");
      (match FP.hit s with
      | exception FP.Injected _ -> ()
      | _ -> Alcotest.fail "hit 3 must raise (repeating)");
      (* a reset re-arms the one-shot clock *)
      FP.arm [ spec "test.oneshot" FP.Raise ];
      (match FP.hit s with
      | exception FP.Injected _ -> ()
      | _ -> Alcotest.fail "first hit must raise");
      (match FP.hit s with FP.Pass -> () | _ -> Alcotest.fail "spent");
      FP.reset_hits ();
      match FP.hit s with
      | exception FP.Injected _ -> ()
      | _ -> Alcotest.fail "reset_hits must re-enable the one-shot")

let test_ctx_scoping_and_actions () =
  let s = FP.site "test.scoped" in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm [ spec "test.scoped" ~ctx:"a" ~repeat:true FP.Trap ];
      (match FP.hit ~ctx:"b" s with FP.Pass -> () | _ -> Alcotest.fail "ctx 'b' must not fire");
      (match FP.hit s with FP.Pass -> () | _ -> Alcotest.fail "no-ctx hit must not fire");
      (match FP.hit ~ctx:"a" s with
      | FP.Fire_trap -> ()
      | _ -> Alcotest.fail "ctx 'a' must fire as a trap");
      FP.arm [ spec "test.scoped" ~repeat:true FP.Fuel ];
      (match FP.hit ~ctx:"anything" s with
      | FP.Fire_fuel -> ()
      | _ -> Alcotest.fail "unscoped spec must fire for any ctx");
      (* hit_unit folds the soft firings into the Injected exception *)
      match FP.hit_unit s with
      | exception FP.Injected msg ->
          Alcotest.(check bool) "message is recognizable" true (FP.is_injected_message msg)
      | () -> Alcotest.fail "hit_unit must raise on a firing site")

(* A scoped plan follows its Pool.map into whichever domain runs a task,
   and only there: a concurrent map outside the scope, on the same pool,
   never fires — even for tasks the scoped caller steals while it
   drains. *)
let test_scoped_plan_follows_pool () =
  let s = FP.site "test.pool_scoped" in
  let task _ =
    Unix.sleepf 0.002;
    ((match FP.hit s with FP.Pass -> false | _ -> true), Domain.self ())
  in
  let items = List.init 64 Fun.id in
  Dca_support.Pool.with_pool ~jobs:2 (fun pool ->
      let outside = Domain.spawn (fun () -> Dca_support.Pool.map pool task items) in
      let inside =
        FP.with_plan
          (FP.make [ spec "test.pool_scoped" ~repeat:true FP.Trap ])
          (fun () -> Dca_support.Pool.map pool task items)
      in
      let outside = Domain.join outside in
      Alcotest.(check bool) "every scoped task fired" true (List.for_all fst inside);
      Alcotest.(check bool) "another domain ran a scoped task" true
        (List.exists (fun (_, d) -> d <> Domain.self ()) inside);
      Alcotest.(check bool) "no unscoped task fired" false (List.exists fst outside);
      Alcotest.(check bool) "the scope ended with the map" false (FP.armed ()))

(* ------------------------------------------------------------------ *)
(* Evaluator resource guards                                           *)
(* ------------------------------------------------------------------ *)

(* A single loop that executes far more than [Eval.guard_interval] steps,
   so the periodic guard is guaranteed to run. *)
let long_loop_src =
  {|
  int acc;
  void main() {
    int i;
    for (i = 0; i < 20000; i = i + 1) { acc = acc + i; }
    printi(acc);
  }
  |}

let alloc_loop_src =
  {|
  struct node { int val; struct node *next; }
  struct node *head;
  int n;
  void main() {
    int i;
    for (i = 0; i < 200000; i = i + 1) {
      struct node *x = new struct node;
      x->val = i;
      x->next = head;
      head = x;
      n = n + 1;
    }
    printi(n);
  }
  |}

let test_eval_deadline_guard () =
  let p = compile long_loop_src in
  let ctx = Eval.create ~deadline_ns:1 p in
  match Eval.run_main ctx with
  | exception Eval.Deadline_exceeded -> ()
  | () -> Alcotest.fail "a 1ns deadline must fire on a 100k-step program"

let test_eval_heap_guard () =
  let p = compile alloc_loop_src in
  let ctx = Eval.create ~heap_words:1_000 p in
  match Eval.run_main ctx with
  | exception Eval.Heap_exhausted -> ()
  | () -> Alcotest.fail "a 1k-word heap budget must fire on a 200k-allocation program"

let test_eval_no_guard_unaffected () =
  (* without explicit budgets the program runs to completion *)
  let p = compile long_loop_src in
  let ctx = Eval.create p in
  Eval.run_main ctx;
  Alcotest.(check bool) "ran to completion" true (Eval.steps ctx > Eval.guard_interval)

let test_eval_step_injection () =
  let p = compile long_loop_src in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm [ spec "eval.step" FP.Trap ];
      let ctx = Eval.create p in
      (match Eval.run_main ctx with
      | exception Eval.Trap msg ->
          Alcotest.(check bool) "trap carries the injection marker" true
            (FP.is_injected_message msg)
      | () -> Alcotest.fail "an armed eval.step trap must fire");
      FP.arm [ spec "eval.step" FP.Fuel ];
      let ctx = Eval.create p in
      match Eval.run_main ctx with
      | exception Eval.Out_of_fuel -> ()
      | () -> Alcotest.fail "an armed eval.step fuel fault must fire")

(* ------------------------------------------------------------------ *)
(* Degradation paths of the dynamic stage                              *)
(* ------------------------------------------------------------------ *)

let untested_ok (r : Driver.loop_result) =
  match r.Driver.lr_decision with Driver.Rejected _ -> true | _ -> false

(* Fuel exhaustion during the golden run degrades the loop to
   [Untestable] — never to a crash — and the verdict is identical across
   worker counts and checkpoint modes. *)
let test_fuel_exhaustion_untestable () =
  let report jobs checkpoint =
    Session.with_session
      ~options:
        (Session.Options.with_spec
           (Commutativity.make_run_spec ~fuel:2_000 ~checkpoint [])
           (light_options jobs))
      (Session.Source { file = "<fuel>"; source = long_loop_src; input = [] })
      (fun s ->
        (match Session.dca_results s with
        | [ r ] when not (untested_ok r) -> (
            match r.Driver.lr_decision with
            | Driver.Untestable why ->
                Alcotest.(check bool)
                  (Printf.sprintf "fuel verdict (%s)" why)
                  true
                  (why = "program ran out of fuel")
            | d -> Alcotest.failf "expected untestable, got %s" (Driver.decision_to_string d))
        | _ -> ());
        Session.report s)
  in
  let base = report 1 Dca_interp.Store.Journal in
  Alcotest.(check string) "jobs=4 report identical" base (report 4 Dca_interp.Store.Journal);
  Alcotest.(check string) "deep-checkpoint report identical" base (report 2 Dca_interp.Store.Deep)

(* A genuine guest trap that only occurs under a permuted schedule is
   order-dependence evidence: division by zero when the reverse replay
   reads a cell the forward order would have initialized. *)
let test_replay_trap_is_non_commutative () =
  let src =
    {|
    int b[18];
    int out;
    void main() {
      int i;
      b[0] = 1;
      for (i = 0; i < 16; i = i + 1) {
        out = out + (100 / b[i]);
        b[i + 1] = 1;
      }
      printi(out);
    }
    |}
  in
  let _, results = analyze ~config:light_config src in
  match List.filter (fun r -> not (untested_ok r)) results with
  | [ r ] -> (
      match r.Driver.lr_decision with
      | Driver.Non_commutative why ->
          Alcotest.(check bool)
            (Printf.sprintf "trap cited as evidence (%s)" why)
            true
            (let has sub =
               let n = String.length sub and m = String.length why in
               let rec go i = i + n <= m && (String.sub why i n = sub || go (i + 1)) in
               go 0
             in
             has "trap")
      | d -> Alcotest.failf "expected non-commutative, got %s" (Driver.decision_to_string d))
  | rs -> Alcotest.failf "expected 1 tested loop, got %d" (List.length rs)

(* An injected trap scoped to one replay schedule flows through the same
   classification: the loop is reported order-dependent with the injected
   message as the witness, not crashed. *)
let test_injected_replay_trap () =
  let src =
    {|
    int a[16];
    void main() {
      int i;
      for (i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; }
      printi(a[3]);
    }
    |}
  in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm [ spec "commutativity.replay" ~ctx:"reverse" FP.Trap ];
      (* prover off: the loop is statically provable, and a proved loop
         never reaches the replay faultpoint *)
      let _, results = analyze ~config:light_config ~static:false src in
      match List.filter (fun r -> not (untested_ok r)) results with
      | [ r ] -> (
          match r.Driver.lr_decision with
          | Driver.Non_commutative why ->
              Alcotest.(check bool)
                (Printf.sprintf "injected witness (%s)" why)
                true (FP.is_injected_message why)
          | d -> Alcotest.failf "expected non-commutative, got %s" (Driver.decision_to_string d))
      | rs -> Alcotest.failf "expected 1 tested loop, got %d" (List.length rs))

(* ------------------------------------------------------------------ *)
(* Driver-level containment and retry                                  *)
(* ------------------------------------------------------------------ *)

(* Three independent loops; killing one must leave the other two's
   verdicts and the report's ordering bit-identical, at any job count. *)
let three_loops_src =
  {|
  int a[16];
  int b[16];
  int c[16];
  void main() {
    int i;
    for (i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; }
    for (i = 0; i < 16; i = i + 1) { b[i] = b[i] * 2; }
    for (i = 0; i < 16; i = i + 1) { c[i] = c[i] + 3; }
    printi(a[1] + b[2] + c[3]);
  }
  |}

let session_lines jobs =
  Session.with_session ~options:(light_options jobs)
    (Session.Source { file = "<fault>"; source = three_loops_src; input = [] })
    (fun s ->
      let report = Session.report s in
      let labels =
        List.filter_map
          (fun (r : Driver.loop_result) ->
            if untested_ok r then None else Some r.Driver.lr_label)
          (Session.dca_results s)
      in
      (report, labels))

let test_containment_is_deterministic () =
  FP.disarm ();
  let baseline, labels = session_lines 1 in
  let victim = match labels with _ :: v :: _ -> v | _ -> Alcotest.fail "need >= 2 loops" in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm [ spec "driver.loop" ~ctx:victim FP.Raise ];
      let faulted, _ = (FP.reset_hits (); session_lines 1) in
      let faulted4, _ = (FP.reset_hits (); session_lines 4) in
      (* the whole faulted report — victim verdict, sibling verdicts,
         ordering, footer — must be byte-identical across job counts *)
      Alcotest.(check string) "jobs=1 vs jobs=4 under fault" faulted faulted4;
      let split r = String.split_on_char '\n' r in
      let is_victim line =
        (* report lines start with the padded loop label *)
        String.length line > 2
        &&
        let body = String.trim line in
        String.length body >= String.length victim
        && String.sub body 0 (String.length victim) = victim
      in
      let base_lines = split baseline and fault_lines = split faulted in
      Alcotest.(check int) "same line count" (List.length base_lines) (List.length fault_lines);
      List.iter2
        (fun b f ->
          if is_victim b then begin
            Alcotest.(check bool)
              (Printf.sprintf "victim is aborted (%s)" f)
              true
              (FP.is_injected_message f
              &&
              let has sub =
                let n = String.length sub and m = String.length f in
                let rec go i = i + n <= m && (String.sub f i n = sub || go (i + 1)) in
                go 0
              in
              has "aborted: crash:")
          end
          else if
            (* every non-victim line, headers and counter footers included,
               may differ only in the aggregate columns *)
            is_victim f
          then Alcotest.fail "victim line moved"
          else if b <> f then begin
            (* the only other lines allowed to change are the aggregate
               header and the counters footer *)
            let aggregate line =
              let has sub s =
                let n = String.length sub and m = String.length s in
                let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
                go 0
              in
              has "DCA:" line || has "counters:" line
            in
            Alcotest.(check bool)
              (Printf.sprintf "only aggregates may drift (%S vs %S)" b f)
              true (aggregate b && aggregate f)
          end)
        base_lines fault_lines)

(* A deadline that cannot be met is retried once with a 4x budget, then
   surfaced as a classified abort with the retry count. *)
let test_deadline_abort_and_retry () =
  let _, results =
    analyze ~config:light_config
      ~spec:(Commutativity.make_run_spec ~deadline_ns:1 [])
      long_loop_src
  in
  match List.filter (fun r -> not (untested_ok r)) results with
  | [ r ] -> (
      match r.Driver.lr_decision with
      | Driver.Aborted { ab_cause = Driver.Deadline; ab_retries } ->
          Alcotest.(check int) "one escalated retry was consumed" 1 ab_retries
      | d -> Alcotest.failf "expected a deadline abort, got %s" (Driver.decision_to_string d))
  | rs -> Alcotest.failf "expected 1 tested loop, got %d" (List.length rs)

let test_heap_abort_no_retry () =
  let _, results =
    analyze ~config:light_config
      ~spec:(Commutativity.make_run_spec ~heap_words:1_000 [])
      alloc_loop_src
  in
  match List.filter (fun r -> not (untested_ok r)) results with
  | [ r ] -> (
      match r.Driver.lr_decision with
      | Driver.Aborted { ab_cause = Driver.Heap; ab_retries } ->
          Alcotest.(check int) "heap exhaustion is not retried" 0 ab_retries
      | d -> Alcotest.failf "expected a heap abort, got %s" (Driver.decision_to_string d))
  | rs -> Alcotest.failf "expected 1 tested loop, got %d" (List.length rs)

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "parse round-trip" `Quick test_parse_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "disarmed sites pass" `Quick test_disarmed_is_pass;
        Alcotest.test_case "one-shot vs repeating" `Quick test_one_shot_vs_repeat;
        Alcotest.test_case "ctx scoping and actions" `Quick test_ctx_scoping_and_actions;
        Alcotest.test_case "scoped plan follows the pool" `Quick test_scoped_plan_follows_pool;
      ] );
    ( "fault.guards",
      [
        Alcotest.test_case "deadline guard fires" `Quick test_eval_deadline_guard;
        Alcotest.test_case "heap guard fires" `Quick test_eval_heap_guard;
        Alcotest.test_case "no guard, no effect" `Quick test_eval_no_guard_unaffected;
        Alcotest.test_case "eval.step injection" `Quick test_eval_step_injection;
      ] );
    ( "fault.degradation",
      [
        Alcotest.test_case "fuel exhaustion is untestable" `Quick test_fuel_exhaustion_untestable;
        Alcotest.test_case "replay trap is non-commutative" `Quick
          test_replay_trap_is_non_commutative;
        Alcotest.test_case "injected replay trap" `Quick test_injected_replay_trap;
      ] );
    ( "fault.containment",
      [
        Alcotest.test_case "containment is deterministic" `Quick test_containment_is_deterministic;
        Alcotest.test_case "deadline abort with retry" `Quick test_deadline_abort_and_retry;
        Alcotest.test_case "heap abort without retry" `Quick test_heap_abort_no_retry;
      ] );
  ]

(* Tests for the telemetry core (lib/support/telemetry) and its
   determinism contract.

   The contract: work counters ([kind = Work]) are bit-identical across
   worker counts and checkpoint modes — they meter decisions the
   deterministic merge consumes, never speculative execution — while the
   disabled path (tracing and counting both off) allocates nothing, so
   an uninstrumented run pays one atomic load and a branch per probe.

   Counters and event buffers are process-global; every test snapshots
   what it needs and resets on the way out so suites stay independent. *)

module T = Dca_support.Telemetry
module Session = Dca_core.Session
module Commutativity = Dca_core.Commutativity

(* Same light configuration as test_session: every dynamic-stage code
   path (identity check, permuted replays, escalation, promotion) at a
   fraction of the default cost. *)
let light_config =
  {
    Commutativity.default_config with
    Commutativity.cc_schedules = Dca_core.Schedule.presets ~shuffles:1 ();
    cc_max_invocations = 2;
  }

(* Session options at [jobs] with [light_config]. *)
let light_options jobs = Session.Options.(default |> with_jobs jobs |> with_config light_config)

(* ------------------------------------------------------------------ *)
(* Clock and counter primitives                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = T.now_ns () in
  let b = T.now_ns () in
  Alcotest.(check bool) "clock never goes backwards" true (b >= a);
  (* a nanosecond clock on a live machine must advance within 10ms *)
  let deadline = a + 10_000_000 in
  let rec spin () = if T.now_ns () <= a && T.now_ns () < deadline then spin () in
  spin ();
  Alcotest.(check bool) "clock advances" true (T.now_ns () > a)

let test_counter_basics () =
  T.reset ();
  T.set_counting true;
  Fun.protect
    ~finally:(fun () ->
      T.set_counting false;
      T.reset ())
    (fun () ->
      let c = T.counter "test.basics" in
      T.add c 5;
      T.incr c;
      Alcotest.(check int) "add + incr" 6 (T.value c);
      Alcotest.(check bool) "find-or-create returns the same cell" true (T.counter "test.basics" == c);
      let m = T.counter ~kind:T.Diag "test.basics_peak" in
      T.add_max m 7;
      T.add_max m 3;
      Alcotest.(check int) "add_max keeps the peak" 7 (T.value m);
      Alcotest.(check bool) "kind filter"
        true
        (List.mem_assoc "test.basics_peak" (T.counters ~kind:T.Diag ())
        && not (List.mem_assoc "test.basics_peak" (T.counters ~kind:T.Work ()))));
  let c = T.counter "test.basics" in
  T.add c 100;
  Alcotest.(check int) "add is a no-op while counting is off" 0 (T.value c)

let test_disabled_path_allocates_nothing () =
  T.set_tracing false;
  T.set_counting false;
  let c = T.counter "test.noalloc" in
  let probe () =
    T.begin_span "x";
    T.add c 1;
    T.instant "x";
    T.end_span "x"
  in
  for _ = 1 to 1_000 do probe () done;
  (* warmed up; any one-time allocation is behind us *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do probe () done;
  let dw = Gc.minor_words () -. w0 in
  (* the Gc.minor_words calls themselves box two floats; allow slack far
     below one word per iteration *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled probes allocate nothing (%.0f minor words)" dw)
    true (dw < 100.0)

(* ------------------------------------------------------------------ *)
(* Counter determinism across jobs and checkpoint modes                *)
(* ------------------------------------------------------------------ *)

(* Analyze [bm] with counting on and return the work-counter snapshot.
   [checkpoint] selects the dynamic stage's store mode through the run
   spec (default: whatever DCA_CHECKPOINT says). *)
let work_snapshot ?checkpoint bm jobs =
  (* spend the one-shot env wiring first: otherwise the first
     Session.create of the test process would fire it and clobber the
     flags set below *)
  T.init_from_env ();
  let options =
    match checkpoint with
    | None -> light_options jobs
    | Some mode ->
        Session.Options.with_spec
          (Commutativity.make_run_spec ~checkpoint:mode bm.Dca_progs.Benchmark.bm_input)
          (light_options jobs)
  in
  Fun.protect
    ~finally:(fun () ->
      T.set_counting false;
      T.reset ())
    (fun () ->
      T.reset ();
      T.set_counting true;
      Session.with_session ~options (Session.Benchmark bm) (fun s -> ignore (Session.dca_results s));
      T.counters ~kind:T.Work ())

let check_snapshots name a b =
  Alcotest.(check (list (pair string int))) name a b;
  Alcotest.(check bool)
    (name ^ ": the analysis actually counted work")
    true
    (List.exists (fun (k, v) -> k = "dca.invocations" && v > 0) a)

let test_work_counters_jobs_invariant () =
  List.iter
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      let seq = work_snapshot bm 1 in
      let par = work_snapshot bm 4 in
      check_snapshots (name ^ ": work counters jobs=1 vs jobs=4") seq par;
      (* treeadd promotes, so its attribution passes are among them *)
      if name = "treeadd" then
        Alcotest.(check bool) "treeadd: attribution runs counted" true
          (Option.value (List.assoc_opt "dca.attribution_runs" seq) ~default:0 > 0))
    [ "DC"; "treeadd"; "hash" ]

(* One shared run of the program tests all of its loops: every registry
   program runs exactly once in the dynamic stage, at any job count
   (escalation's permuted runs are counted apart, in dca.wp_schedule_runs).
   The instructions interpreted are the same at both job counts: replicas
   are charged in schedule order, and escalation starts only the runs the
   sequential rule starts. *)
let test_one_program_run () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) ->
      let counter name snapshot = Option.value (List.assoc_opt name snapshot) ~default:0 in
      let snapshots = List.map (fun jobs -> (jobs, work_snapshot bm jobs)) [ 1; 4 ] in
      List.iter
        (fun (jobs, snapshot) ->
          Alcotest.(check int) (Printf.sprintf "%s: program runs at jobs=%d" bm.bm_name jobs) 1
            (counter "dca.program_runs" snapshot))
        snapshots;
      let instructions jobs = counter "interp.instructions" (List.assoc jobs snapshots) in
      Alcotest.(check bool) (bm.bm_name ^ ": instructions counted") true (instructions 1 > 0);
      Alcotest.(check int) (bm.bm_name ^ ": instructions at jobs=1 vs jobs=4") (instructions 1)
        (instructions 4))
    Dca_progs.Registry.all

(* treeadd and perimeter promote, so their attribution replicas fork the
   deep-copy store too. *)
let test_work_counters_checkpoint_invariant () =
  List.iter
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      let journal = work_snapshot ~checkpoint:Dca_interp.Store.Journal bm 2 in
      let deep = work_snapshot ~checkpoint:Dca_interp.Store.Deep bm 2 in
      check_snapshots (name ^ ": work counters journal vs deep") journal deep)
    [ "DC"; "treeadd"; "perimeter" ]

(* The fault-isolation counters (dca.aborted, dca.retries,
   dca.deadline-hits, dca.faults-injected) are work counters too: they
   are ticked once per loop at the containment boundary, so an armed,
   loop-scoped fault plan must produce bit-identical totals at any job
   count. *)
let test_fault_counters_jobs_invariant () =
  let module FP = Dca_support.Faultpoint in
  let bm = Dca_progs.Registry.find_exn "DC" in
  (* discover a victim label from a fault-free sequential run *)
  let victim =
    Session.with_session ~options:(light_options 1) (Session.Benchmark bm) (fun s ->
        match
          List.filter_map
            (fun (r : Dca_core.Driver.loop_result) ->
              if r.Dca_core.Driver.lr_outcome <> None then Some r.Dca_core.Driver.lr_label
              else None)
            (Session.dca_results s)
        with
        | v :: _ -> v
        | [] -> Alcotest.fail "DC has no tested loop")
  in
  Fun.protect ~finally:FP.disarm (fun () ->
      FP.arm
        [
          {
            FP.sp_site = "driver.loop";
            sp_ctx = Some victim;
            sp_nth = 1;
            sp_repeat = false;
            sp_action = FP.Raise;
          };
        ];
      let snapshot jobs =
        FP.reset_hits ();
        work_snapshot bm jobs
      in
      let seq = snapshot 1 in
      let par = snapshot 4 in
      check_snapshots "DC under a victim fault: jobs=1 vs jobs=4" seq par;
      let v name = try List.assoc name seq with Not_found -> 0 in
      Alcotest.(check int) "exactly one loop aborted" 1 (v "dca.aborted");
      Alcotest.(check int) "the abort is attributed to the injection" 1 (v "dca.faults-injected"))

(* ------------------------------------------------------------------ *)
(* Contexts                                                             *)
(* ------------------------------------------------------------------ *)

(* [with_ctx] scopes counting to one context, nests, restores on
   exception, and [merge_into] folds one context into another under the
   per-counter merge rule. *)
let test_ctx_scoping_and_merge () =
  let a = T.Ctx.create ~counting:true () in
  let b = T.Ctx.create ~counting:true () in
  let c = T.counter "test.ctx_scope" in
  let peak = T.counter ~merge:T.Max "test.ctx_scope_peak" in
  let ambient = T.current () in
  T.with_ctx a (fun () ->
      Alcotest.(check bool) "with_ctx switches the ambient context" true (T.current () == a);
      T.add c 5;
      T.add_max peak 7;
      T.with_ctx b (fun () ->
          T.add c 2;
          T.add_max peak 9);
      Alcotest.(check bool) "nested scope restored" true (T.current () == a));
  Alcotest.(check bool) "outer scope restored" true (T.current () == ambient);
  (try T.with_ctx b (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "scope restored after an exception" true (T.current () == ambient);
  Alcotest.(check int) "a saw only a's work" 5 (T.Ctx.value a c);
  Alcotest.(check int) "b saw only b's work" 2 (T.Ctx.value b c);
  Alcotest.(check int) "ambient saw nothing" 0 (T.value c);
  T.Ctx.merge_into ~into:a b;
  Alcotest.(check int) "sum counters add on merge" 7 (T.Ctx.value a c);
  Alcotest.(check int) "max counters keep the peak on merge" 9 (T.Ctx.value a peak);
  Alcotest.(check int) "merge leaves the source intact" 2 (T.Ctx.value b c)

(* Two sessions pinned to their own counting contexts, run at the same
   time on separate domains: each context ends the run with exactly the
   work-counter deltas of a serial reference run of the same benchmark,
   and the global context records none of it. *)
let test_concurrent_context_isolation () =
  T.init_from_env ();
  T.reset ();
  T.set_counting false;
  let work_keys = List.map fst (T.counters ~kind:T.Work ()) in
  let analyze name =
    let ctx = T.Ctx.create ~counting:true () in
    let bm = Dca_progs.Registry.find_exn name in
    let options =
      Session.Options.(
        default |> with_jobs 2 |> with_config light_config |> with_telemetry ctx)
    in
    let delta =
      Session.with_session ~options (Session.Benchmark bm) (fun s ->
          ignore (Session.dca_results s);
          Session.telemetry s)
    in
    List.filter (fun (k, _) -> List.mem k work_keys) delta
  in
  let ref_dc = analyze "DC" in
  let ref_tree = analyze "treeadd" in
  Alcotest.(check bool) "references saw work" true
    (List.assoc "dca.invocations" ref_dc > 0 && List.assoc "dca.invocations" ref_tree > 0);
  Alcotest.(check bool) "the two benchmarks are distinguishable" true (ref_dc <> ref_tree);
  let global_before = T.counters () in
  let d1 = Domain.spawn (fun () -> analyze "DC") in
  let d2 = Domain.spawn (fun () -> analyze "treeadd") in
  let got_dc = Domain.join d1 in
  let got_tree = Domain.join d2 in
  Alcotest.(check (list (pair string int)))
    "DC context: exact deltas under concurrency" ref_dc got_dc;
  Alcotest.(check (list (pair string int)))
    "treeadd context: exact deltas under concurrency" ref_tree got_tree;
  Alcotest.(check (list (pair string int)))
    "global context untouched by pinned sessions" global_before (T.counters ())

(* ------------------------------------------------------------------ *)
(* Span balance and the trace sinks                                    *)
(* ------------------------------------------------------------------ *)

(* Walk [evs] per domain with a stack: every 'E' must name the
   innermost open 'B' of the same domain, and every stack must drain. *)
let check_balanced ctx evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun e ->
      let s = stack e.T.e_tid in
      match e.T.e_ph with
      | 'B' -> s := e.T.e_name :: !s
      | 'E' -> (
          match !s with
          | top :: rest ->
              Alcotest.(check string) (ctx ^ ": E closes the innermost B") top e.T.e_name;
              s := rest
          | [] -> Alcotest.failf "%s: E %S without an open B" ctx e.T.e_name)
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun tid s ->
      Alcotest.(check (list string)) (Printf.sprintf "%s: tid %d stack drained" ctx tid) [] !s)
    stacks

let with_tracing f =
  T.init_from_env ();
  T.reset ();
  T.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      T.set_tracing false;
      T.reset ())
    f

let test_analysis_trace_balanced () =
  with_tracing (fun () ->
      let bm = Dca_progs.Registry.find_exn "DC" in
      Session.with_session ~options:(light_options 2) (Session.Benchmark bm) (fun s ->
          ignore (Session.dca_results s));
      let evs = T.events () in
      Alcotest.(check bool) "analysis recorded events" true (evs <> []);
      Alcotest.(check bool)
        "pool task spans present (worker lanes visible)" true
        (List.exists (fun e -> e.T.e_name = "task") evs);
      Alcotest.(check bool)
        "replay spans carry verdict args" true
        (List.exists
           (fun e -> e.T.e_ph = 'E' && List.mem_assoc "outcome" e.T.e_args)
           evs);
      check_balanced "DC jobs=2" evs)

let test_chrome_trace_file () =
  with_tracing (fun () ->
      T.span ~cat:"outer" "alpha" (fun () ->
          T.span "beta\"quoted" (fun () -> T.instant "tick"));
      let file = Filename.temp_file "dca_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          T.write_chrome_trace file;
          let ic = open_in file in
          let body =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let count needle =
            let n = String.length needle in
            let rec go i acc =
              if i + n > String.length body then acc
              else go (i + 1) (if String.sub body i n = needle then acc + 1 else acc)
            in
            go 0 0
          in
          Alcotest.(check bool) "object wrapper" true (String.length body > 2 && body.[0] = '{');
          Alcotest.(check int) "two B events" 2 (count "\"ph\":\"B\"");
          Alcotest.(check int) "two E events" 2 (count "\"ph\":\"E\"");
          Alcotest.(check int) "one instant" 1 (count "\"ph\":\"i\"");
          Alcotest.(check bool) "quotes escaped" true (count "beta\\\"quoted" = 2)))

(* Random nesting scripts — spans, instants, and spans whose body raises
   — always leave a balanced, drained trace. *)
let prop_random_spans_balanced =
  QCheck.Test.make ~count:100 ~name:"random span scripts stay balanced"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 6))
    (fun script ->
      T.reset ();
      T.set_tracing true;
      Fun.protect
        ~finally:(fun () ->
          T.set_tracing false;
          T.reset ())
        (fun () ->
          let rec run = function
            | [] -> ()
            | 0 :: rest ->
                T.instant "i";
                run rest
            | 6 :: rest ->
                (try T.span "boom" (fun () -> failwith "inner") with Failure _ -> ());
                run rest
            | d :: rest -> T.span (Printf.sprintf "s%d" d) (fun () -> run rest)
          in
          run script;
          let evs = T.events () in
          let count ph = List.length (List.filter (fun e -> e.T.e_ph = ph) evs) in
          check_balanced "random script" evs;
          count 'B' = count 'E'))

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_allocates_nothing;
        Alcotest.test_case "work counters: jobs=1 = jobs=4" `Quick test_work_counters_jobs_invariant;
        Alcotest.test_case "one program run per registry program" `Quick test_one_program_run;
        Alcotest.test_case "work counters: journal = deep" `Quick
          test_work_counters_checkpoint_invariant;
        Alcotest.test_case "fault counters: jobs=1 = jobs=4" `Quick
          test_fault_counters_jobs_invariant;
        Alcotest.test_case "context scoping and merge" `Quick test_ctx_scoping_and_merge;
        Alcotest.test_case "concurrent sessions, isolated contexts" `Quick
          test_concurrent_context_isolation;
        Alcotest.test_case "analysis trace is balanced per domain" `Quick
          test_analysis_trace_balanced;
        Alcotest.test_case "chrome trace sink" `Quick test_chrome_trace_file;
        QCheck_alcotest.to_alcotest prop_random_spans_balanced;
      ] );
  ]

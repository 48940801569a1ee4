(* dca — command-line front end of the Dynamic Commutativity Analysis
   reproduction.

     dca list                      enumerate built-in benchmark programs
     dca run <prog>                execute a MiniC program
     dca ir <prog>                 dump the lowered IR
     dca analyze <prog>            DCA verdict for every loop
     dca tools <prog>              compare the five baseline detectors
     dca speedup <prog>            plan + simulated multicore speedup

   <prog> is a path to a .mc file or the name of a built-in benchmark.

   Every analysis command goes through Dca_core.Session: one memoized
   pipeline (ir → proginfo → profile → dca_results → plan) and one worker
   pool, selected with --jobs (or the DCA_JOBS environment variable). *)

open Cmdliner
module Session = Dca_core.Session
module Telemetry = Dca_support.Telemetry
module Faultpoint = Dca_support.Faultpoint

(* The flags shared by every command: pool width, telemetry sinks, fault
   plan, per-invocation resource budgets.  One record, one cmdliner term
   ([common_term] below), consumed everywhere — a flag added here reaches
   analyze, batch, fuzz, serve and client alike. *)
type common = {
  co_jobs : int option;
  co_trace : string option;
  co_stats : bool;
  co_faults : string option;
  co_deadline_ms : int option;
  co_heap_words : int option;
  co_no_static : bool;
}

(* Side effects of the common flags: arm telemetry and the fault plan.
   [--faults] replaces whatever DCA_FAULTS would have armed; a malformed
   plan raises Faultpoint.Bad_plan, mapped to a usage error at top
   level.  [--trace]/[--stats] layer over DCA_TRACE / DCA_STATS. *)
let apply_common co =
  Telemetry.init_from_env ();
  (match co.co_faults with Some plan -> Faultpoint.arm_string plan | None -> ());
  match (co.co_trace, co.co_stats) with
  | None, false -> ()
  | trace, stats ->
      let cur = Telemetry.config () in
      let is_jsonl f = Filename.check_suffix f ".jsonl" in
      Telemetry.configure
        {
          Telemetry.cfg_trace =
            (match trace with Some f when not (is_jsonl f) -> Some f | _ -> cur.Telemetry.cfg_trace);
          cfg_jsonl = (match trace with Some f when is_jsonl f -> Some f | _ -> cur.Telemetry.cfg_jsonl);
          cfg_stats = stats || cur.Telemetry.cfg_stats;
        }

(* The session options of the common flags, and of the analysis flags of
   the commands that have them. *)
let options_of ?shuffles ?escalate ?hierarchical co =
  Session.Options.of_settings ?jobs:co.co_jobs ?shuffles ?escalate ?hierarchical
    ~static:(not co.co_no_static) ?deadline_ms:co.co_deadline_ms ?heap_words:co.co_heap_words ()

(* Open a session for PROG and run [f] on it, mapping the standard failure
   modes to exit codes.  The telemetry sinks are flushed on every exit
   path so a trace survives a trap. *)
let with_session ?options common prog f =
  apply_common common;
  let options = match options with Some o -> o | None -> options_of common in
  match Session.load ~options prog with
  | Error msg ->
      Printf.eprintf "dca: %s\n" msg;
      1
  | Ok s ->
      Fun.protect
        ~finally:(fun () ->
          Session.close s;
          Telemetry.flush ())
        (fun () ->
          match f s with
          | () -> 0
          | exception e -> (
              match Session.failure_message e with
              | Some msg ->
                  Printf.eprintf "dca: %s\n" msg;
                  1
              | None -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())))

let prog_arg =
  let doc = "Program: a .mc source file or a built-in benchmark name (see $(b,dca list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROG" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the dynamic stage.  Defaults to $(b,DCA_JOBS) if set, otherwise the \
     recommended domain count.  Results are bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write an execution trace to $(docv): Chrome trace-event JSON (load in Perfetto or \
     about://tracing), or a JSONL event stream if $(docv) ends in $(b,.jsonl)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the telemetry counter table to stderr on exit: deterministic work counters \
           (identical for every $(b,--jobs) value) and diagnostic counters.")

let faults_arg =
  let doc =
    "Deterministic fault plan, e.g. $(b,driver.loop[main:3(d1)]@1=raise; eval.step@100+=delay:2).  \
     Entries are $(i,site[ctx]@N=action) with action one of $(b,raise), $(b,trap), $(b,fuel), \
     $(b,delay:MS); $(b,@N+) fires from the Nth hit on.  Also honored from $(b,DCA_FAULTS) \
     (this flag wins).  Injected failures are contained per loop and reported as \
     $(b,aborted) verdicts."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget in milliseconds for each tested loop's run of the program: the plain \
     execution plus that loop's own tests (each whole-program verification run has its own).  \
     Exceeding it aborts that loop's test (with one 4x-escalated retry), not the session."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let heap_arg =
  let doc =
    "Major-heap growth budget in words for each program run of the dynamic stage; exceeding it \
     during a loop's test aborts that loop's test, and during the plain execution every loop \
     still under test, not the session."
  in
  Arg.(value & opt (some int) None & info [ "heap-words" ] ~docv:"W" ~doc)

let no_static_arg =
  Arg.(
    value & flag
    & info [ "no-static" ]
        ~doc:
          "Disable the static commutativity fast-path: every accepted loop goes through the \
           golden run and replays even when the affine prover could discharge it.  Verdicts and \
           plans are identical either way; use for A/B comparisons of $(b,dca.golden-runs) / \
           $(b,dca.replays) work.")

let common_term =
  let mk co_jobs co_trace co_stats co_faults co_deadline_ms co_heap_words co_no_static =
    { co_jobs; co_trace; co_stats; co_faults; co_deadline_ms; co_heap_words; co_no_static }
  in
  Term.(
    const mk $ jobs_arg $ trace_arg $ stats_arg $ faults_arg $ deadline_arg $ heap_arg
    $ no_static_arg)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-14s %-5s %s\n" "name" "suite" "description";
    List.iter
      (fun bm ->
        Printf.printf "%-14s %-5s %s\n" bm.Dca_progs.Benchmark.bm_name
          (match bm.Dca_progs.Benchmark.bm_suite with
          | Dca_progs.Benchmark.Npb -> "NPB"
          | Dca_progs.Benchmark.Plds -> "PLDS")
          bm.Dca_progs.Benchmark.bm_description)
      Dca_progs.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark programs")
    Term.(const run $ const ())

let run_cmd =
  let run prog common =
    with_session common prog (fun s ->
        let ctx = Dca_interp.Eval.create ~input:(Session.input s) (Session.ir s) in
        Dca_interp.Eval.run_main ctx;
        List.iter print_endline (Dca_interp.Eval.outputs ctx);
        Printf.printf "(%d instructions executed)\n" (Dca_interp.Eval.steps ctx))
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a MiniC program on the interpreter")
    Term.(const run $ prog_arg $ common_term)

let ir_cmd =
  let run prog common =
    with_session common prog (fun s ->
        print_string (Dca_ir.Ir_printer.program_to_string (Session.ir s)))
  in
  Cmd.v (Cmd.info "ir" ~doc:"Dump the lowered intermediate representation")
    Term.(const run $ prog_arg $ common_term)

let shuffles_arg =
  Arg.(
    value
    & opt int Dca_core.Schedule.default_shuffles
    & info [ "shuffles" ] ~docv:"N" ~doc:"Number of random shuffles to test.")

let no_escalate_arg =
  Arg.(
    value & flag
    & info [ "no-escalate" ]
        ~doc:"Disable whole-program verification; strict live-out digests only.")

let hierarchical_arg =
  Arg.(
    value & flag
    & info [ "hierarchical" ]
        ~doc:
          "Explore loops top-down: skip (as subsumed) loops nested inside a loop already found \
           commutative.")

let analyze_cmd =
  let run prog shuffles no_escalate hierarchical common =
    let options = options_of ~shuffles ~escalate:(not no_escalate) ~hierarchical common in
    with_session ~options common prog (fun s -> print_string (Session.report s))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run Dynamic Commutativity Analysis on every loop of the program")
    Term.(
      const run $ prog_arg $ shuffles_arg $ no_escalate_arg $ hierarchical_arg $ common_term)

let tools_cmd =
  let run prog common =
    with_session common prog (fun s ->
        let info = Session.proginfo s in
        let profile = Session.profile s in
        let dca = Session.dca_results s in
        let tool_results =
          List.map
            (fun tool ->
              (tool.Dca_baselines.Tool.tool_name, tool.Dca_baselines.Tool.tool_analyze info (Some profile)))
            Dca_baselines.Registry.all
        in
        Printf.printf "%-26s %s\n" "loop"
          (String.concat " "
             (List.map (fun (n, _) -> Printf.sprintf "%-9s" n) tool_results @ [ "DCA" ]));
        List.iter
          (fun (r : Dca_core.Driver.loop_result) ->
            let id = r.Dca_core.Driver.lr_loop.Dca_analysis.Loops.l_id in
            let marks =
              List.map
                (fun (_, results) ->
                  if List.mem id (Dca_baselines.Tool.parallel_ids results) then
                    Printf.sprintf "%-9s" "yes"
                  else Printf.sprintf "%-9s" ".")
                tool_results
            in
            Printf.printf "%-26s %s %s\n" r.Dca_core.Driver.lr_label (String.concat " " marks)
              (if Dca_core.Driver.is_commutative r then "yes" else "."))
          dca)
  in
  Cmd.v
    (Cmd.info "tools" ~doc:"Compare the five baseline detectors and DCA, loop by loop")
    Term.(const run $ prog_arg $ common_term)

let workers_arg =
  Arg.(
    value
    & opt int Dca_parallel.Machine.default.Dca_parallel.Machine.m_workers
    & info [ "workers" ] ~docv:"P" ~doc:"Simulated worker count.")

let speedup_cmd =
  let run prog workers common =
    with_session common prog (fun s ->
        let machine = Dca_parallel.Machine.with_workers Dca_parallel.Machine.default workers in
        let plan = Session.plan ~machine s in
        let result = Dca_parallel.Speedup.simulate ~machine (Session.proginfo s) (Session.profile s) plan in
        Printf.printf "parallel plan:\n%s\n" (Dca_parallel.Codegen.plan_to_string plan);
        List.iter
          (fun sl ->
            Printf.printf "  %-24s seq %12.0f  par %12.0f  saved %12.0f\n"
              sl.Dca_parallel.Speedup.ls_loop_id sl.Dca_parallel.Speedup.ls_seq_cost
              sl.Dca_parallel.Speedup.ls_par_cost sl.Dca_parallel.Speedup.ls_saved)
          result.Dca_parallel.Speedup.sp_loops;
        Printf.printf "sequential work: %.0f\nsimulated parallel time (%d workers): %.0f\nspeedup: %.2fx\n"
          result.Dca_parallel.Speedup.sp_seq workers result.Dca_parallel.Speedup.sp_par
          result.Dca_parallel.Speedup.sp_speedup)
  in
  Cmd.v
    (Cmd.info "speedup"
       ~doc:"Parallelize the DCA-commutative loops and report the simulated speedup")
    Term.(const run $ prog_arg $ workers_arg $ common_term)

let advise_cmd =
  let run prog common =
    with_session common prog (fun s ->
        print_string (Dca_core.Advisor.report (Session.advise s)))
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Full parallelism advisory: per loop, whether to parallelize (and with which OpenMP \
          clauses), leave serial, or keep sequential — with the evidence")
    Term.(const run $ prog_arg $ common_term)

let annotate_cmd =
  let run prog common =
    with_session common prog (fun s ->
        print_string
          (Dca_parallel.Codegen.annotate_source (Session.proginfo s) ~source:(Session.source s)
             (Session.plan s)))
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Emit the source with OpenMP-style pragmas inserted above every loop DCA parallelizes")
    Term.(const run $ prog_arg $ common_term)

let export_c_cmd =
  let run prog common =
    with_session common prog (fun s ->
        print_string
          (Dca_parallel.Codegen.export_c (Session.proginfo s) ~file:(Session.file s)
             ~source:(Session.source s) (Session.plan s)))
  in
  Cmd.v
    (Cmd.info "export-c"
       ~doc:
         "Export the program as compilable C99 with real OpenMP pragmas on every loop DCA \
          parallelizes (build with: cc -fopenmp prog.c -lm)")
    Term.(const run $ prog_arg $ common_term)

(* ------------------------------------------------------------------ *)

(* dca batch: sweep a directory of .mc files (and/or the registry) and
   keep going — one program's failure must never abort the sweep.  Exit
   0 iff no program crashed: a crash is an exception the per-loop
   containment did not absorb, or a loop-level Aborted verdict whose
   cause is a Crash.  Without --keep-going the sweep stops at the first
   non-ok program and exits 1. *)
let batch_cmd =
  let dir_arg =
    let doc = "Directory to sweep: every $(b,*.mc) file, in name order." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let registry_arg =
    Arg.(
      value & flag
      & info [ "registry" ]
          ~doc:"Also analyze every built-in benchmark (the default when no DIR is given).")
  in
  let keep_going_arg =
    Arg.(
      value & flag
      & info [ "keep-going"; "k" ]
          ~doc:
            "Analyze every program even after failures; the exit code then reflects only whether \
             any program $(i,crashed).")
  in
  let run dir registry keep_going common =
    apply_common common;
    let options = options_of common in
    let dir_programs =
      match dir with
      | None -> Ok []
      | Some d ->
          if Sys.file_exists d && Sys.is_directory d then
            Ok
              (Sys.readdir d |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".mc")
              |> List.sort compare
              |> List.map (Filename.concat d))
          else Error (Printf.sprintf "'%s' is not a directory" (Option.value dir ~default:""))
    in
    let code =
      match dir_programs with
    | Error msg ->
        Printf.eprintf "dca batch: %s\n" msg;
        2
    | Ok from_dir -> (
        let programs =
          (if registry || dir = None then
             List.map (fun bm -> bm.Dca_progs.Benchmark.bm_name) Dca_progs.Registry.all
           else [])
          @ from_dir
        in
        match programs with
        | [] ->
            Printf.eprintf "dca batch: nothing to analyze\n";
            2
        | programs ->
            let module Driver = Dca_core.Driver in
            let analyze_one prog =
              (* re-zero the plan's hit counters so a one-shot fault
                 applies to every program independently *)
              Faultpoint.reset_hits ();
              match Session.load ~options prog with
              | Error msg -> `Error msg
              | Ok s -> (
                  Fun.protect
                    ~finally:(fun () -> Session.close s)
                    (fun () ->
                      match Session.dca_results s with
                      | results ->
                          let count p = List.length (List.filter p results) in
                          let contained =
                            count (fun (r : Driver.loop_result) ->
                                match r.Driver.lr_decision with
                                | Driver.Aborted { ab_cause = Driver.Crash _; _ } -> true
                                | _ -> false)
                          in
                          let aborted =
                            count (fun (r : Driver.loop_result) ->
                                match r.Driver.lr_decision with
                                | Driver.Aborted _ -> true
                                | _ -> false)
                          in
                          `Done
                            ( List.length results,
                              count Driver.is_commutative,
                              aborted,
                              contained )
                      | exception e -> (
                          match Session.failure_message e with
                          | Some msg -> `Error msg
                          | None -> `Crash (Printexc.to_string e))))
            in
            Printf.printf "%-36s %6s %6s %6s  %s\n" "program" "loops" "comm" "abrt" "status";
            let ok = ref 0 and errors = ref 0 and crashed = ref 0 in
            let stopped = ref false in
            List.iter
              (fun prog ->
                if not !stopped then begin
                  let row status = Printf.printf "%-36s %s\n" prog status in
                  let failed =
                    match analyze_one prog with
                    | `Done (loops, comm, abrt, contained) ->
                        Printf.printf "%-36s %6d %6d %6d  %s\n" prog loops comm abrt
                          (if contained > 0 then
                             Printf.sprintf "contained-crash(%d)" contained
                           else "ok");
                        if contained > 0 then incr crashed else incr ok;
                        contained > 0
                    | `Error msg ->
                        row ("error: " ^ msg);
                        incr errors;
                        true
                    | `Crash msg ->
                        row ("CRASH: " ^ msg);
                        incr crashed;
                        true
                  in
                  if failed && not keep_going then stopped := true
                end)
              programs;
            Printf.printf "batch: %d program(s): %d ok, %d error(s), %d crashed%s\n"
              (!ok + !errors + !crashed) !ok !errors !crashed
              (if !stopped then " (stopped at first failure; use --keep-going)" else "");
            if !crashed > 0 then 1 else if !stopped then 1 else 0)
    in
    Telemetry.flush ();
    code
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze every .mc program of a directory (and/or every built-in benchmark) with per-loop \
          crash containment; exit 0 only if no program crashed")
    Term.(const run $ dir_arg $ registry_arg $ keep_going_arg $ common_term)

(* Exit-code contract: 0 = clean run, 1 = soundness violation found,
   2 = usage error.  cmdliner reports its own parse failures as 124, so
   flag-value validation that must yield 2 happens here. *)
let fuzz_cmd =
  let module Fuzz = Dca_gen.Fuzz_driver in
  let defaults = Fuzz.default_config in
  let seed_arg =
    Arg.(
      value & opt int defaults.Fuzz.fz_seed
      & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the program stream.")
  in
  let count_arg =
    Arg.(
      value & opt int defaults.Fuzz.fz_count
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let max_iters_arg =
    Arg.(
      value & opt int defaults.Fuzz.fz_max_iters
      & info [ "max-iters" ] ~docv:"N"
          ~doc:
            "Largest trip count of the loop under test (2-7; the oracle runs all $(i,N)! \
             iteration orders).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Write shrunk counterexamples to $(docv) as .mc files.")
  in
  let no_metamorphic_arg =
    Arg.(
      value & flag
      & info [ "no-metamorphic" ]
          ~doc:
            "Skip the metamorphic invariants (report equality across --jobs 1/4 and checkpoint \
             modes); roughly 4x faster.")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report counterexamples without minimizing them.")
  in
  let fault_mode_arg =
    Arg.(
      value & flag
      & info [ "fault-mode" ]
          ~doc:
            "For every loop of every generated program, re-run the session with an injected \
             one-shot crash scoped to that loop's test and assert containment: the victim must \
             abort, every other loop's verdict must be byte-identical.")
  in
  let static_xcheck_arg =
    Arg.(
      value & flag
      & info [ "static-xcheck" ]
          ~doc:
            "Differential check of the static prover: run every generated program with the \
             fast-path on and off and fail on any divergence where a statically proved \
             Commutative disagrees with the dynamic stage or the exhaustive permutation oracle, \
             or where merely enabling the prover perturbs a dynamic verdict.")
  in
  let run seed count max_iters corpus no_metamorphic no_shrink fault_mode static_xcheck common =
    if count < 0 then begin
      Printf.eprintf "dca fuzz: --count must be non-negative (got %d)\n" count;
      2
    end
    else if max_iters < 2 || max_iters > Dca_gen.Oracle.max_trip then begin
      Printf.eprintf "dca fuzz: --max-iters must be in 2..%d (got %d)\n" Dca_gen.Oracle.max_trip
        max_iters;
      2
    end
    else if match common.co_jobs with Some j when j < 1 -> true | _ -> false then begin
      Printf.eprintf "dca fuzz: --jobs must be positive\n";
      2
    end
    else begin
      apply_common common;
      let cfg =
        {
          Fuzz.fz_seed = seed;
          fz_count = count;
          fz_max_iters = max_iters;
          fz_jobs = Option.value common.co_jobs ~default:defaults.Fuzz.fz_jobs;
          fz_metamorphic = not no_metamorphic;
          fz_fault_mode = fault_mode;
          fz_static_xcheck = static_xcheck;
          fz_shrink = not no_shrink;
          fz_corpus = corpus;
        }
      in
      let result = Fuzz.run cfg in
      print_string result.Fuzz.r_report;
      Telemetry.flush ();
      if result.Fuzz.r_violations = [] then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random loop programs, decide ground-truth commutativity \
          with an exhaustive permutation oracle, and cross-check the DCA verdicts both ways")
    Term.(
      const run $ seed_arg $ count_arg $ max_iters_arg $ corpus_arg $ no_metamorphic_arg
      $ no_shrink_arg $ fault_mode_arg $ static_xcheck_arg $ common_term)

(* ------------------------------------------------------------------ *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "dca-serve.sock"

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH" ~doc)

(* dca serve: the persistent analysis daemon.  The common flags apply
   daemon-wide: --jobs is the default pool width for requests that do not
   set their own, --trace/--stats instrument the whole serving run,
   --faults arms the daemon's process plan (a request's own plan replaces
   it within that request only). *)
let serve_cmd =
  let defaults = Dca_serve.Server.default_config default_socket in
  let cache_dir_arg =
    let doc =
      "Directory for the persistent verdict-cache level (created if missing).  Without it the \
       cache is in-memory only and dies with the daemon."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let cache_capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            (Printf.sprintf "In-memory verdict-cache entries (default %d)."
               Dca_serve.Vcache.default_capacity))
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Append one JSONL record per request: op, program, status, hits, elapsed time.")
  in
  let max_requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Exit after serving $(docv) requests (tests and smoke runs).")
  in
  let workers_arg =
    Arg.(
      value
      & opt int defaults.Dca_serve.Server.sv_workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Connections served concurrently ($(docv) worker domains behind one accept loop).  \
             $(b,--workers 1) recovers the serial one-connection-at-a-time daemon; replies are \
             byte-identical either way.")
  in
  let metrics_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Rewrite a Prometheus-style text exposition of the daemon's metrics to $(docv) \
             (atomically, temp + rename) after every request — point a file-based scraper at it.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int defaults.Dca_serve.Server.sv_max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Overload bound: a connection arriving while $(docv) are already queued is shed with \
             an immediate $(b,busy) reply (nothing is admitted, so retrying is always safe).")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Reply deadline per request: past it the client gets a structured timeout error and \
             the connection is closed, while the analysis finishes (and is cached) server-side.")
  in
  let drain_timeout_arg =
    Arg.(
      value
      & opt float defaults.Dca_serve.Server.sv_drain_timeout_s
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM/SIGINT the daemon stops accepting and finishes in-flight requests; \
             stragglers still running past $(docv) are abandoned instead of blocking the exit.")
  in
  let run socket cache_dir cache_capacity workers access_log metrics_file max_requests
      max_queue request_timeout drain_timeout common =
    apply_common common;
    let cfg =
      {
        Dca_serve.Server.sv_socket = socket;
        sv_cache_dir = cache_dir;
        sv_cache_capacity = cache_capacity;
        sv_jobs = common.co_jobs;
        sv_workers = workers;
        sv_access_log = access_log;
        sv_metrics_file = metrics_file;
        sv_max_requests = max_requests;
        sv_max_queue = max_queue;
        sv_request_timeout_ms = request_timeout;
        sv_drain_timeout_s = drain_timeout;
        (* the CLI daemon drains gracefully on SIGTERM/SIGINT; embedders
           of Server.run opt in explicitly *)
        sv_handle_signals = true;
      }
    in
    match Dca_serve.Server.run cfg with
    | served ->
        Printf.eprintf "dca serve: served %d request(s)\n" served;
        Telemetry.flush ();
        0
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "dca serve: cannot listen on %s: %s\n" socket (Unix.error_message err);
        1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: JSON-lines requests over a Unix-domain socket, \
          answered from a content-addressed verdict cache when the program has not changed")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ cache_capacity_arg $ workers_arg
      $ access_log_arg $ metrics_file_arg $ max_requests_arg $ max_queue_arg
      $ request_timeout_arg $ drain_timeout_arg $ common_term)

(* dca client: one request against a running daemon.  The session-shaped
   common flags travel in the request (--jobs, --deadline-ms,
   --heap-words, --faults scope to this request on the server); --trace
   and --stats instrument the client process itself. *)
let client_cmd =
  let defaults = Dca_serve.Client.default_backoff in
  let op_arg =
    let doc = "One of $(b,analyze), $(b,ping), $(b,stats), $(b,shutdown)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let prog_opt_arg =
    let doc = "Program for $(b,analyze): a .mc file or a built-in benchmark name." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"PROG" ~doc)
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the verdict cache for this request (the fresh result is still stored).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "With $(b,stats): print the daemon's metrics as a Prometheus-style text exposition \
             (latency histogram, cache hit/miss counters, in-flight gauge) instead of the plain \
             counter table.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int defaults.Dca_serve.Client.bo_attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Total attempts (including the first) against a busy, overloaded, or not-yet-listening \
             daemon, with capped-exponential backoff between them.  $(b,--retries 1) disables \
             retrying.")
  in
  let retry_base_arg =
    Arg.(
      value
      & opt float defaults.Dca_serve.Client.bo_base_ms
      & info [ "retry-base-ms" ] ~docv:"MS"
          ~doc:
            (Printf.sprintf "First backoff delay; each retry doubles it (capped at %.0f ms) before jitter."
               defaults.Dca_serve.Client.bo_cap_ms))
  in
  let retry_seed_arg =
    Arg.(
      value
      & opt int defaults.Dca_serve.Client.bo_seed
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:
            "Jitter seed: equal seeds give equal backoff schedules; concurrent clients should \
             pick different seeds to decorrelate their retries.")
  in
  let run socket op prog shuffles no_escalate hierarchical no_cache metrics retries retry_base
      retry_seed common =
    apply_common common;
    match Dca_serve.Protocol.op_of_string op with
    | None ->
        Printf.eprintf "dca client: unknown op '%s' (expected analyze|ping|stats|shutdown)\n" op;
        2
    | Some rq_op -> (
        let rq_program =
          match (rq_op, prog) with
          | Dca_serve.Protocol.Analyze, Some p ->
              (* ship local .mc files inline so the daemon needs no
                 filesystem agreement with the client *)
              if Sys.file_exists p && not (Sys.is_directory p) then
                let source = In_channel.with_open_bin p In_channel.input_all in
                Some (Dca_serve.Protocol.Inline { file = p; source; input = [] })
              else Some (Dca_serve.Protocol.Named p)
          | _ -> None
        in
        if rq_op = Dca_serve.Protocol.Analyze && rq_program = None then begin
          Printf.eprintf "dca client: analyze needs a PROG argument\n";
          2
        end
        else
          let rq =
            {
              Dca_serve.Protocol.rq_id = Unix.getpid ();
              rq_op;
              rq_program;
              rq_jobs = common.co_jobs;
              rq_shuffles = Some shuffles;
              rq_hierarchical = hierarchical;
              rq_no_escalate = no_escalate;
              rq_deadline_ms = common.co_deadline_ms;
              rq_heap_words = common.co_heap_words;
              rq_faults = common.co_faults;
              rq_no_cache = no_cache;
              rq_no_static = common.co_no_static;
            }
          in
          let backoff =
            {
              defaults with
              Dca_serve.Client.bo_attempts = max 1 retries;
              bo_base_ms = retry_base;
              bo_seed = retry_seed;
            }
          in
          match Dca_serve.Client.request_retry ~backoff socket rq with
          | Error msg ->
              Printf.eprintf "dca client: %s\n" msg;
              1
          | Ok rp ->
              let open Dca_serve.Protocol in
              if rp.rp_status = Busy then begin
                Printf.eprintf "dca client: server busy: %s\n"
                  (Option.value rp.rp_error ~default:"overloaded");
                1
              end
              else if not (Dca_serve.Protocol.ok rp) then begin
                Printf.eprintf "dca client: server error: %s\n"
                  (Option.value rp.rp_error ~default:"unknown");
                1
              end
              else begin
                (match rp.rp_report with Some report -> print_string report | None -> ());
                (if metrics then
                   match rp.rp_metrics with
                   | Some j -> (
                       match Dca_serve.Metrics.snapshot_of_json j with
                       | Ok snap -> print_string (Dca_serve.Metrics.exposition snap)
                       | Error msg -> Printf.eprintf "dca client: bad metrics payload: %s\n" msg)
                   | None ->
                       Printf.eprintf "dca client: --metrics needs a stats reply (op was %s)\n" op
                 else begin
                   List.iter (fun (k, v) -> Printf.printf "%-32s %d\n" k v) rp.rp_counters;
                   (* latency summary straight from the histogram buckets *)
                   match Option.map Dca_serve.Metrics.snapshot_of_json rp.rp_metrics with
                   | Some (Ok snap) -> (
                       match
                         List.assoc_opt "dca_request_duration_seconds"
                           snap.Dca_serve.Metrics.sn_hists
                       with
                       | Some h when h.Telemetry.hs_count > 0 ->
                           let q p = Dca_serve.Metrics.quantile h p *. 1000. in
                           Printf.printf "%-32s p50=%.1f p90=%.1f p99=%.1f\n" "latency(ms)"
                             (q 0.5) (q 0.9) (q 0.99)
                       | _ -> ())
                   | _ -> ()
                 end);
                if rp.rp_loops <> [] then
                  Printf.eprintf "dca client: %d loop(s), %d from cache, %d computed, %.1f ms\n"
                    (List.length rp.rp_loops) rp.rp_hits rp.rp_misses
                    (float_of_int rp.rp_elapsed_ns /. 1e6);
                Telemetry.flush ();
                0
              end)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,dca serve) daemon and print the reply (the report of \
          $(b,analyze) is byte-identical to running $(b,dca analyze) locally)")
    Term.(
      const run $ socket_arg $ op_arg $ prog_opt_arg $ shuffles_arg $ no_escalate_arg
      $ hierarchical_arg $ no_cache_arg $ metrics_arg $ retries_arg $ retry_base_arg
      $ retry_seed_arg $ common_term)

(* Top-level exit-code contract: 0 = success, 1 = analysis/program
   failure, 2 = usage error (including a malformed fault plan), 3 =
   internal error (an exception no containment layer absorbed).  Set
   DCA_DEBUG=1 for a backtrace on internal errors. *)
let () =
  let debug = Sys.getenv_opt "DCA_DEBUG" = Some "1" in
  if debug then Printexc.record_backtrace true;
  let doc = "Loop parallelization using Dynamic Commutativity Analysis (CGO 2021 reproduction)" in
  let info = Cmd.info "dca" ~version:"1.0.0" ~doc in
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             list_cmd;
             run_cmd;
             ir_cmd;
             analyze_cmd;
             batch_cmd;
             tools_cmd;
             speedup_cmd;
             advise_cmd;
             annotate_cmd;
             export_c_cmd;
             fuzz_cmd;
             serve_cmd;
             client_cmd;
           ])
    with
    | Faultpoint.Bad_plan msg ->
        Printf.eprintf "dca: invalid fault plan: %s\n" msg;
        2
    | e ->
        let bt = Printexc.get_backtrace () in
        Printf.eprintf "dca: internal error: %s\n" (Printexc.to_string e);
        if debug then prerr_string bt;
        3
  in
  exit code

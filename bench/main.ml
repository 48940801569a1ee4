(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (paper-vs-measured side by side), runs the ablation
   studies of DESIGN.md §5, and measures the analysis pipeline itself with
   bechamel micro-benchmarks (one Test.make per table/figure driver).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one experiment
     dune exec bench/main.exe -- --list  # available targets            *)

open Dca_experiments
module Telemetry = Dca_support.Telemetry

let section title = Printf.printf "\n================ %s ================\n%!" title

(* All wall-clock measurement goes through the telemetry monotonic clock:
   [Unix.gettimeofday] is wall time and jumps under NTP adjustment, which
   is exactly what a benchmark harness must not be sensitive to. *)
let seconds_since t0_ns = float_of_int (Telemetry.now_ns () - t0_ns) *. 1e-9

let timed name f =
  let t0 = Telemetry.now_ns () in
  let result = f () in
  Printf.printf "[%s: %.1fs]\n%!" name (seconds_since t0);
  result

let run_table1 () =
  section "Table I";
  print_string (timed "table1" (fun () -> Tables.render_table1 (Tables.table1 ())))

let run_table2 () =
  section "Table II";
  print_string (timed "table2" (fun () -> Tables.render_table2 (Tables.table2 ())))

let run_table3 () =
  section "Table III";
  print_string (timed "table3" (fun () -> Tables.render_table3 (Tables.table3 ())))

let run_table4 () =
  section "Table IV";
  print_string (timed "table4" (fun () -> Tables.render_table4 (Tables.table4 ())))

let run_fig5 () =
  section "Fig. 5";
  print_string (timed "fig5" (fun () -> Figures.render_fig5 (Figures.fig5 ())))

let run_fig6 () =
  section "Fig. 6";
  print_string (timed "fig6" (fun () -> Figures.render_fig6 (Figures.fig6 ())))

let run_fig7 () =
  section "Fig. 7";
  print_string (timed "fig7" (fun () -> Figures.render_fig7 (Figures.fig7 ())))

let run_ablation () =
  section "Ablations (DESIGN.md §5)";
  print_string (timed "verification" (fun () -> Ablation.render_verification (Ablation.verification ())));
  print_newline ();
  print_string (timed "schedules" (fun () -> Ablation.render_schedules (Ablation.schedules ())));
  print_newline ();
  print_string (timed "machine" (fun () -> Ablation.render_machine_sweep (Ablation.machine_sweep ())));
  print_newline ();
  print_string (timed "tolerance" (fun () -> Ablation.render_float_tolerance (Ablation.float_tolerance ())))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the pipeline                           *)
(* ------------------------------------------------------------------ *)

let quickstart_src =
  {|
  int array[32];
  int total;
  void main() {
    int i;
    for (i = 0; i < 32; i = i + 1) { array[i] = array[i] + i; }
    for (i = 0; i < 32; i = i + 1) { total = total + array[i]; }
    printi(total);
  }
  |}

let bechamel_tests () =
  let open Bechamel in
  let compile () = ignore (Dca_ir.Lower.compile ~file:"<bench>" quickstart_src) in
  let analyze =
    let prog = Dca_ir.Lower.compile ~file:"<bench>" quickstart_src in
    fun () -> ignore (Dca_analysis.Proginfo.analyze prog)
  in
  let interpret =
    let prog = Dca_ir.Lower.compile ~file:"<bench>" quickstart_src in
    fun () ->
      let ctx = Dca_interp.Eval.create prog in
      Dca_interp.Eval.run_main ctx
  in
  let dca_detect () =
    Dca_core.Session.with_session
      ~options:Dca_core.Session.Options.(default |> with_jobs 1)
      (Dca_core.Session.Source { file = "<bench>"; source = quickstart_src; input = [] })
      (fun s -> ignore (Dca_core.Session.dca_results s))
  in
  let info = Dca_analysis.Proginfo.analyze (Dca_ir.Lower.compile ~file:"<bench>" quickstart_src) in
  let cost_pass () = ignore (Dca_profiling.Depprof.profile_program info) in
  let dependence_pass () = ignore (Dca_profiling.Depprof.dependences info) in
  let ep = Dca_progs.Registry.find_exn "EP" in
  let table_probe name f = Test.make ~name (Staged.stage f) in
  [
    table_probe "frontend+lowering" compile;
    table_probe "static-analyses" analyze;
    table_probe "interpreter-run" interpret;
    table_probe "dca-full-pipeline" dca_detect;
    table_probe "profiler-cost-pass" cost_pass;
    table_probe "profiler-dependence-pass" dependence_pass;
    (* one probe per table/figure driver: a full per-benchmark evaluation
       is the unit of work behind each of them (EP = smallest NPB) *)
    Test.make ~name:"table1-row(EP)" (Staged.stage (fun () -> ignore (Evaluation.evaluate ep)));
  ]

let run_perf () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some (est :: _) -> Printf.printf "  %-26s %14.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-26s (no estimate)\n%!" name)
        results)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)
(* Worker-pool scaling: the dynamic stage at jobs=1 vs jobs=N          *)
(* ------------------------------------------------------------------ *)

(* A two-domain capacity probe: an allocation-free loop timed on one
   domain, then the same work split over two.  The ratio is near 2 when
   a second core is free for the process and near 1 when it is not; on
   a VM whose second vCPU comes and goes, a width measurement means
   little without it. *)
let capacity_probe () =
  let spin n =
    let x = ref 0 in
    for i = 1 to n do
      x := (!x lxor (i * 0x9E3779B1)) + (!x lsr 3)
    done;
    !x
  in
  let n = 60_000_000 in
  let t0 = Telemetry.now_ns () in
  ignore (Sys.opaque_identity (spin n));
  let one = seconds_since t0 in
  let t0 = Telemetry.now_ns () in
  let other = Domain.spawn (fun () -> spin (n / 2)) in
  ignore (Sys.opaque_identity (spin (n - (n / 2))));
  ignore (Sys.opaque_identity (Domain.join other));
  let two = seconds_since t0 in
  (one, two)

let run_jobs () =
  section "Worker-pool scaling over the registry (jobs=1 vs jobs=N, best of 3)";
  (* Every registry program is analyzed at jobs=1 and at N, the width a
     session picks by default, three times each, alternating the widths;
     a single run varies too much on a shared machine, so each width is
     timed as the best of its three.  Reports and interpreted
     instructions must be identical across widths and runs: a
     difference exits 1.  Before each program's runs the two-domain
     capacity probe is taken, so every row says how much of a second
     core the process had.  The table goes to BENCH_jobs.json. *)
  let n = Dca_support.Pool.default_jobs () in
  let analyze bm jobs =
    let tele = Telemetry.Ctx.create ~counting:true () in
    let t0 = Telemetry.now_ns () in
    let report, counters =
      Dca_core.Session.with_session
        ~options:Dca_core.Session.Options.(default |> with_jobs jobs |> with_telemetry tele)
        (Dca_core.Session.Benchmark bm)
        (fun s ->
          let report = Dca_core.Session.report s in
          (report, Dca_core.Session.telemetry s))
    in
    let t = seconds_since t0 in
    (t, (report, Option.value (List.assoc_opt "interp.instructions" counters) ~default:0))
  in
  let best runs = List.fold_left (fun acc (t, _) -> Float.min acc t) infinity runs in
  let rows =
    List.map
      (fun (bm : Dca_progs.Benchmark.t) ->
        let probe_one, probe_two = capacity_probe () in
        let pairs = List.init 3 (fun _ -> (analyze bm 1, analyze bm n)) in
        let seq = List.map fst pairs and par = List.map snd pairs in
        let results = List.map snd (seq @ par) in
        let identical = List.for_all (( = ) (List.hd results)) results in
        let t1 = best seq and tn = best par and instructions = snd (List.hd results) in
        Printf.printf "  %-14s jobs=1 %6.3fs  jobs=%d %6.3fs  (%.2fx)  %10d instructions  probe %.2fx%s\n%!"
          bm.bm_name t1 n tn (t1 /. tn) instructions (probe_one /. probe_two)
          (if identical then "" else "  REPORT OR INSTRUCTIONS DIFFER");
        (bm.bm_name, t1, tn, instructions, identical, (probe_one, probe_two)))
      Dca_progs.Registry.all
  in
  let sum f = List.fold_left (fun acc row -> acc +. f row) 0.0 rows in
  let t1 = sum (fun (_, t, _, _, _, _) -> t) and tn = sum (fun (_, _, t, _, _, _) -> t) in
  let probe_one = sum (fun (_, _, _, _, _, (p, _)) -> p) and probe_two = sum (fun (_, _, _, _, _, (_, p)) -> p) in
  let instructions = List.fold_left (fun acc (_, _, _, i, _, _) -> acc + i) 0 rows in
  let identical = List.for_all (fun (_, _, _, _, ok, _) -> ok) rows in
  Printf.printf "  %-14s jobs=1 %6.3fs  jobs=%d %6.3fs  (%.2fx)  %10d instructions  probe %.2fx\n%!" "total" t1 n
    tn (t1 /. tn) instructions (probe_one /. probe_two);
  Printf.printf "  reports and instructions identical: %b\n%!" identical;
  let oc = open_out "BENCH_jobs.json" in
  Printf.fprintf oc
    "{\n  \"jobs_default\": %d,\n  \"cores\": %d,\n  \"timing\": \"wall seconds of one in-process \
     analysis (Session report, as dca analyze), best of 3 per width\",\n  \"probe\": \"two-domain \
     capacity probe taken before each program: seconds of an allocation-free loop on one domain, then \
     of the same work split over two; ratio = one / two (2 = a free second core, 1 = none)\",\n  \
     \"programs\": [\n"
    n (Domain.recommended_domain_count ());
  List.iteri
    (fun k (name, t1, tn, instructions, ok, (p1, p2)) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"jobs1_s\": %.3f, \"jobsN_s\": %.3f, \"speedup\": %.2f, \
         \"instructions\": %d, \"identical\": %b, \"probe_one_s\": %.3f, \"probe_two_s\": %.3f, \
         \"probe_ratio\": %.2f}%s\n"
        name t1 tn (t1 /. tn) instructions ok p1 p2 (p1 /. p2)
        (if k = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"total_jobs1_s\": %.3f,\n  \"total_jobsN_s\": %.3f,\n  \"total_instructions\": %d,\n  \
     \"total_probe_one_s\": %.3f,\n  \"total_probe_two_s\": %.3f,\n  \"probe_ratio\": %.2f,\n  \
     \"identical\": %b\n}\n"
    t1 tn instructions probe_one probe_two (probe_one /. probe_two) identical;
  close_out oc;
  Printf.printf "  wrote BENCH_jobs.json\n%!";
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Interpreter micro-benchmarks (BENCH_interp.json)                    *)
(* ------------------------------------------------------------------ *)

(* Smoke mode (BENCH_SMOKE=1, used by CI) runs every probe with minimal
   repetitions: it validates the target end to end without the statistical
   stability of a full run. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

let median samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let sample_ns ~reps f =
  f ();
  (* warm-up: fault in code paths and steady-state the allocator *)
  median
    (Array.init reps (fun _ ->
         let t0 = Telemetry.now_ns () in
         f ();
         float_of_int (Telemetry.now_ns () - t0)))

let run_interp () =
  section "Interpreter micro-benchmarks";
  let open Dca_interp in
  let open Dca_progs in
  let reps_run = if smoke then 3 else 15 in
  let reps_snap = if smoke then 50 else 400 in
  let reps_dca = if smoke then 1 else 5 in
  let bms = [ Registry.find_exn "LU"; Registry.find_exn "treeadd" ] in
  let entries = ref [] in
  let push ?(decimals = 0) name v =
    Printf.printf "  %-34s %14.*f\n%!" name decimals v;
    entries := (name, (decimals, v)) :: !entries
  in
  (* 1. plain runs: the compiled evaluator end to end, and the minor words
     one of them allocates per executed instruction — deterministic, so it
     is recorded beside the timings *)
  List.iter
    (fun bm ->
      let prog = Dca_ir.Lower.compile ~file:bm.Benchmark.bm_name bm.Benchmark.bm_source in
      let run () =
        let ctx = Eval.create ~input:bm.Benchmark.bm_input prog in
        Eval.run_main ctx;
        ctx
      in
      let ns = sample_ns ~reps:reps_run (fun () -> ignore (run ())) in
      push (Printf.sprintf "interp_run_%s_ns" bm.Benchmark.bm_name) ns;
      let words0 = Gc.minor_words () in
      let ctx = run () in
      push ~decimals:2
        (Printf.sprintf "interp_minor_words_per_step_%s" bm.Benchmark.bm_name)
        ((Gc.minor_words () -. words0) /. float_of_int (Eval.steps ctx)))
    bms;
  (* 2. snapshot + dirty + restore cycle on a <=10%-dirtied heap: the undo
     journal's O(dirty) against the deep oracle's O(heap) *)
  let blocks = 4096 and dirty = 256 in
  let cycle mode =
    let p = Dca_ir.Lower.compile ~file:"<bench>" "void main() { }" in
    let st = Store.create ~mode p ~input:[] in
    let ids = Array.init blocks (fun _ -> Store.alloc st [| Dca_ir.Layout.KInt |] ~count:16) in
    let stride = blocks / dirty in
    sample_ns ~reps:reps_snap (fun () ->
        let s = Store.snapshot st in
        for k = 0 to dirty - 1 do
          Store.store st ~block:ids.(k * stride) ~off:0 (Value.VInt k)
        done;
        Store.restore st s;
        Store.release st s)
  in
  let j = cycle Store.Journal in
  let d = cycle Store.Deep in
  push "snapshot_restore_journal_ns" j;
  push "snapshot_restore_deep_ns" d;
  push "snapshot_restore_speedup" (d /. j);
  Printf.printf "  (%d heap blocks, %d dirtied = %.1f%% of the heap)\n%!" blocks dirty
    (100.0 *. float_of_int dirty /. float_of_int blocks);
  (* 3. the full dynamic stage: golden recording plus every schedule
     replay — timed, and its work counters recorded alongside: the
     counters are deterministic, so a counter drift between two runs of
     this harness is an analysis change, not noise.  BT and perimeter
     weigh golden recording most (perimeter promotes twice); the
     attribution passes of the promotions are counted beside the
     report's counters.  Beside the time: the minor collections and
     promoted words of one dynamic stage ([Gc.quick_stat] deltas), and
     the golden recordings' nanoseconds per recorded instruction — the
     [golden] spans of a traced session, which hold the recording and
     the digest capture and carry the instructions recorded (median of
     the sessions). *)
  let golden_ns_per_step events =
    let ns = ref 0 and steps = ref 0 and open_at = Hashtbl.create 4 in
    List.iter
      (fun (e : Telemetry.event) ->
        if e.e_name = "golden" then
          match e.e_ph with
          | 'B' -> Hashtbl.replace open_at e.e_tid e.e_ts
          | 'E' -> (
              match (Hashtbl.find_opt open_at e.e_tid, List.assoc_opt "instructions" e.e_args) with
              | Some t0, Some n ->
                  ns := !ns + (e.e_ts - t0);
                  steps := !steps + int_of_string n
              | _ -> ())
          | _ -> ())
      events;
    float_of_int !ns /. float_of_int (max 1 !steps)
  in
  List.iter
    (fun bm ->
      let seq_opts = Dca_core.Session.Options.(default |> with_jobs 1) in
      let dynamic_stage ?(options = seq_opts) () =
        Dca_core.Session.with_session ~options (Dca_core.Session.Benchmark bm) (fun s ->
            ignore (Dca_core.Session.dca_results s))
      in
      let ns = sample_ns ~reps:reps_dca dynamic_stage in
      push (Printf.sprintf "dca_dynamic_%s_ns" bm.Benchmark.bm_name) ns;
      let gc0 = Gc.quick_stat () in
      dynamic_stage ();
      let gc1 = Gc.quick_stat () in
      push (Printf.sprintf "dca_dynamic_%s_minor_collections" bm.Benchmark.bm_name)
        (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      push (Printf.sprintf "dca_dynamic_%s_promoted_words" bm.Benchmark.bm_name)
        (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      push ~decimals:1
        (Printf.sprintf "dca_golden_%s_ns_per_step" bm.Benchmark.bm_name)
        (median
           (Array.init reps_dca (fun _ ->
                let tele = Telemetry.Ctx.create ~tracing:true () in
                dynamic_stage ~options:Dca_core.Session.Options.(seq_opts |> with_telemetry tele) ();
                golden_ns_per_step (Telemetry.Ctx.events tele))));
      let tele = Telemetry.Ctx.create ~counting:true () in
      let counters, attributions =
        Dca_core.Session.with_session
          ~options:Dca_core.Session.Options.(seq_opts |> with_telemetry tele)
          (Dca_core.Session.Benchmark bm)
          (fun s ->
            let counters = Dca_core.Report.counters (Dca_core.Session.dca_results s) in
            (counters, Option.value (List.assoc_opt "dca.attribution_runs" (Dca_core.Session.telemetry s)) ~default:0))
      in
      List.iter
        (fun (key, v) ->
          let key = String.map (fun c -> if c = '-' then '_' else c) key in
          push (Printf.sprintf "dca_%s_%s" bm.Benchmark.bm_name key) (float_of_int v))
        (counters @ [ ("attribution_runs", attributions) ]))
    (bms @ [ Registry.find_exn "BT"; Registry.find_exn "perimeter" ]);
  (* 4. profiling: the cost pass every profile runs and the dependence
     pass only the dependence baselines force, with the deterministic
     total cost and dependence count beside them *)
  List.iter
    (fun bm ->
      let open Dca_profiling in
      let name = bm.Benchmark.bm_name and input = bm.Benchmark.bm_input in
      let info = Dca_analysis.Proginfo.analyze (Benchmark.compile bm) in
      push (Printf.sprintf "profile_cost_pass_%s_ns" name)
        (sample_ns ~reps:reps_run (fun () -> ignore (Depprof.profile_program ~input info)));
      push (Printf.sprintf "profile_dependence_pass_%s_ns" name)
        (sample_ns ~reps:reps_run (fun () -> ignore (Depprof.dependences ~input info)));
      let p = Depprof.profile_program ~input info in
      push (Printf.sprintf "profile_%s_total_cost" name) (float_of_int p.Depprof.pr_total_cost);
      push (Printf.sprintf "profile_%s_dependences" name)
        (float_of_int
           (Hashtbl.fold (fun id _ n -> n + List.length (Depprof.deps_of p id)) p.Depprof.pr_loops 0)))
    bms;
  let oc = open_out "BENCH_interp.json" in
  output_string oc "{\n";
  let rec emit = function
    | [] -> ()
    | (name, (decimals, v)) :: rest ->
        Printf.fprintf oc "  %S: %.*f%s\n" name decimals v (if rest = [] then "" else ",");
        emit rest
  in
  emit (List.rev !entries);
  output_string oc "}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_interp.json\n%!"

(* ------------------------------------------------------------------ *)
(* Serve daemon: verdict-cache cold vs warm (BENCH_serve.json)         *)
(* ------------------------------------------------------------------ *)

(* Drives the serve engine in-process (no socket: the cache, not the
   transport, is what is being measured).  Four paths on LU:
     cold        — empty cache, every loop pays the dynamic stage
     warm        — same engine again, every loop from the in-memory LRU
     disk-warm   — a fresh engine over the same cache directory, every
                   loop promoted from disk (a daemon restart)
     after-edit  — LU by name right after LU with a dead store in main:
                   the edit re-tests main's loops and its own escalated
                   verdicts, and the unedited program's must still be
                   cached
   The warm, disk-warm and after-edit reports must be byte-identical to
   the cold one — the deterministic-merge guarantee extended across the
   cache. *)
let run_serve () =
  section "Serve daemon: verdict-cache cold vs warm";
  let open Dca_serve in
  let dir = Filename.temp_file "dca-bench-cache" "" in
  Sys.remove dir;
  let analyze ?(program = Protocol.Named "LU") engine =
    let t0 = Telemetry.now_ns () in
    match
      Engine.handle engine
        {
          Protocol.default_request with
          Protocol.rq_id = Telemetry.now_ns () land 0xffff;
          rq_op = Protocol.Analyze;
          rq_program = Some program;
          rq_jobs = Some 2;
        }
    with
    | { Protocol.rp_status = Protocol.Ok; rp_report = Some report; rp_hits; rp_misses; _ } ->
        (float_of_int (Telemetry.now_ns () - t0), report, rp_hits, rp_misses)
    | { Protocol.rp_error; _ } ->
        failwith ("serve bench: " ^ Option.value rp_error ~default:"analyze failed")
  in
  let engine = Engine.create ~cache_dir:dir ~jobs:2 () in
  let cold_ns, cold_report, _, cold_misses = analyze engine in
  let reps = if smoke then 3 else 10 in
  let warm = Array.init reps (fun _ -> analyze engine) in
  let warm_ns = median (Array.map (fun (ns, _, _, _) -> ns) warm) in
  let warm_identical =
    Array.for_all (fun (_, r, _, _) -> String.equal r cold_report) warm
  in
  let warm_hits = match warm.(0) with _, _, h, _ -> h in
  Engine.close engine;
  (* daemon restart: a fresh engine, cache served from disk *)
  let engine2 = Engine.create ~cache_dir:dir ~jobs:2 () in
  let disk_ns, disk_report, disk_hits, _ = analyze engine2 in
  (* the edit goes on main's brace line, so no loop label moves *)
  let edited_lu =
    let lu = Option.get (Dca_progs.Registry.find "LU") in
    let src = lu.Dca_progs.Benchmark.bm_source and main = "void main() {" in
    let rec after_main i =
      if String.sub src i (String.length main) = main then i + String.length main
      else after_main (i + 1)
    in
    let at = after_main 0 in
    Protocol.Inline
      {
        file = "LU.mc";
        source =
          String.sub src 0 at ^ " int dca_bench_edit; dca_bench_edit = 1;"
          ^ String.sub src at (String.length src - at);
        input = lu.Dca_progs.Benchmark.bm_input;
      }
  in
  let after_edit =
    Array.init reps (fun _ ->
        ignore (analyze ~program:edited_lu engine2);
        analyze engine2)
  in
  let after_edit_ns = median (Array.map (fun (ns, _, _, _) -> ns) after_edit) in
  let after_edit_identical =
    Array.for_all (fun (_, r, _, _) -> String.equal r cold_report) after_edit
  in
  let _, _, after_edit_hits, after_edit_misses = after_edit.(0) in
  Engine.close engine2;
  (* Requests/sec over real sockets under mixed warm/cold traffic: four
     persistent-connection clients, each alternating a pre-warmed
     benchmark (cache hit) with a unique inline program (cache miss) and
     thinking ~25ms between requests.  A serial daemon (--workers 1)
     serves whole connections one at a time, so it idles through one
     client's think time while the others wait — the concurrent daemon's
     win is the elimination of that head-of-line blocking, not raw CPU
     parallelism.  Replies must be identical across the two modes. *)
  let clients = 4 in
  let per_client = if smoke then 4 else 8 in
  let think = 0.025 in
  let cold_src tag =
    Printf.sprintf
      "int a%d[16];\nvoid main() { int i; for (i = 0; i < 16; i = i + 1) { a%d[i] = a%d[i] + %d; } }\n"
      tag tag tag (tag + 1)
  in
  let warm_rq =
    {
      Protocol.default_request with
      Protocol.rq_op = Protocol.Analyze;
      rq_program = Some (Protocol.Named "DC");
      rq_jobs = Some 1;
    }
  in
  let run_mode workers =
    let dir = Filename.temp_file "dca-bench-serve" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let socket = Filename.concat dir "dca.sock" in
    let cfg =
      {
        (Server.default_config socket) with
        Server.sv_jobs = Some 1;
        sv_workers = workers;
        sv_cache_dir = Some (Filename.concat dir "cache");
      }
    in
    let server = Domain.spawn (fun () -> Server.run cfg) in
    let one rq =
      match Client.with_client socket (fun c -> Client.request c rq) with
      | Ok rp -> Some rp
      | Error _ -> None
    in
    let rec wait_ready n =
      if n = 0 then failwith "serve bench: daemon never became reachable";
      match one { Protocol.default_request with Protocol.rq_id = 1 } with
      | Some _ -> ()
      | None ->
          Unix.sleepf 0.05;
          wait_ready (n - 1)
    in
    wait_ready 200;
    (* pre-warm: DC's verdicts enter the cache before the clock starts *)
    (match one { warm_rq with Protocol.rq_id = 2 } with
    | Some { Protocol.rp_status = Protocol.Ok; _ } -> ()
    | _ -> failwith "serve bench: pre-warm failed");
    let t0 = Telemetry.now_ns () in
    let client_domain c =
      Domain.spawn (fun () ->
          match
            Client.with_client socket (fun conn ->
                Ok
                  (List.init per_client (fun i ->
                       let id = (c * 100) + i in
                       let rq =
                         if i mod 2 = 0 then { warm_rq with Protocol.rq_id = id }
                         else
                           {
                             warm_rq with
                             Protocol.rq_id = id;
                             rq_program =
                               Some
                                 (Protocol.Inline
                                    { file = "cold.mc"; source = cold_src id; input = [] });
                           }
                       in
                       let rp =
                         match Client.request conn rq with
                         | Ok rp when Protocol.ok rp -> rp
                         | Ok rp ->
                             failwith
                               ("serve bench: "
                               ^ Option.value rp.Protocol.rp_error ~default:"request failed")
                         | Error e -> failwith ("serve bench: " ^ e)
                       in
                       Unix.sleepf think;
                       match rp.Protocol.rp_report with
                       | Some r -> r
                       | None -> failwith "serve bench: reply without report")))
          with
          | Ok reports -> reports
          | Error e -> failwith ("serve bench: " ^ e))
    in
    let reports = List.concat_map Domain.join (List.init clients client_domain) in
    let elapsed = seconds_since t0 in
    ignore (one { Protocol.default_request with Protocol.rq_id = 3; rq_op = Protocol.Shutdown });
    ignore (Domain.join server);
    (float_of_int (clients * per_client) /. elapsed, List.sort compare reports)
  in
  let rps_serial, reports_serial = timed "serve-serial" (fun () -> run_mode 1) in
  let rps_concurrent, reports_concurrent = timed "serve-concurrent" (fun () -> run_mode 4) in
  let concurrent_identical = reports_serial = reports_concurrent in
  let entries =
    [
      ("serve_cold_LU_ns", cold_ns);
      ("serve_warm_LU_ns", warm_ns);
      ("serve_disk_warm_LU_ns", disk_ns);
      ("serve_after_edit_LU_ns", after_edit_ns);
      ("serve_warm_speedup", cold_ns /. warm_ns);
      ("serve_disk_warm_speedup", cold_ns /. disk_ns);
      ("serve_cold_misses", float_of_int cold_misses);
      ("serve_warm_hits", float_of_int warm_hits);
      ("serve_disk_warm_hits", float_of_int disk_hits);
      ("serve_after_edit_hits", float_of_int after_edit_hits);
      ("serve_after_edit_misses", float_of_int after_edit_misses);
      ("serve_warm_report_identical", if warm_identical then 1.0 else 0.0);
      ( "serve_disk_report_identical",
        if String.equal disk_report cold_report then 1.0 else 0.0 );
      ("serve_after_edit_report_identical", if after_edit_identical then 1.0 else 0.0);
      ("serve_requests_per_sec_serial", rps_serial);
      ("serve_requests_per_sec_concurrent", rps_concurrent);
      ("serve_concurrent_speedup_pct", 100.0 *. rps_concurrent /. rps_serial);
      ("serve_concurrent_reports_identical", if concurrent_identical then 1.0 else 0.0);
    ]
  in
  List.iter (fun (name, v) -> Printf.printf "  %-34s %14.0f\n%!" name v) entries;
  let oc = open_out "BENCH_serve.json" in
  output_string oc "{\n";
  let rec emit = function
    | [] -> ()
    | (name, v) :: rest ->
        Printf.fprintf oc "  %S: %.0f%s\n" name v (if rest = [] then "" else ",");
        emit rest
  in
  emit entries;
  output_string oc "}\n";
  close_out oc;
  Printf.printf
    "  wrote BENCH_serve.json (warm %.0fx, disk-warm %.0fx, after-edit %.0fx, identical: %b; \
     %.1f -> %.1f req/s concurrent, identical: %b)\n\
     %!"
    (cold_ns /. warm_ns) (cold_ns /. disk_ns) (cold_ns /. after_edit_ns)
    (warm_identical && String.equal disk_report cold_report && after_edit_identical)
    rps_serial rps_concurrent concurrent_identical

(* ------------------------------------------------------------------ *)
(* Static fast-path A/B: prover on vs --no-static over the registry    *)
(* ------------------------------------------------------------------ *)

(* The harness form of the README's --no-static workflow: for every
   registry benchmark, analyze twice and report what the prover bought —
   proved/fissioned/bailed loop counts and the golden-run reduction —
   while asserting the verdict lines stayed put (modulo provenance
   annotations). *)
let run_static () =
  section "Static fast-path (prover on vs --no-static)";
  let module Session = Dca_core.Session in
  (* claim the env-driven telemetry init before the first session does,
     so enabling counters here survives session creation *)
  Telemetry.init_from_env ();
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_counting was)
    (fun () ->
      let tracked =
        [ "dca.golden_runs"; "dca.static-proved"; "dca.static-fission"; "dca.static-bailouts" ]
      in
      let counters () = List.map (fun n -> (n, Telemetry.value (Telemetry.counter n))) tracked in
      let strip_marker l =
        match String.rindex_opt l '[' with
        | Some i when String.length l > 0 && l.[String.length l - 1] = ']' ->
            String.trim (String.sub l 0 i)
        | _ -> l
      in
      let verdict_lines report =
        String.split_on_char '\n' report
        |> List.filter (fun l -> String.length l >= 2 && String.sub l 0 2 = "  ")
      in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      let analyze bm static =
        let before = counters () in
        let t0 = Telemetry.now_ns () in
        let report =
          Session.with_session
            ~options:Session.Options.(default |> with_jobs 1 |> with_static static)
            (Session.Benchmark bm) Session.report
        in
        let secs = seconds_since t0 in
        let after = counters () in
        (report, secs, fun n -> List.assoc n after - List.assoc n before)
      in
      Printf.printf "  %-13s %6s %7s %7s %12s %10s %6s %8s\n%!" "benchmark" "proved" "fission"
        "bailout" "golden-saved" "on/off s" "equal" "stronger";
      List.iter
        (fun bm ->
          let name = bm.Dca_progs.Benchmark.bm_name in
          let on_report, on_s, on_d = analyze bm true in
          let off_report, off_s, off_d = analyze bm false in
          let saved = off_d "dca.golden_runs" - on_d "dca.golden_runs" in
          (* verdict lines must match modulo the provenance/test markers;
             the one legitimate difference is untestable -> statically
             proved commutative (counted as "stronger") *)
          let stronger = ref 0 and equal = ref true in
          (try
             List.iter2
               (fun on_l off_l ->
                 if strip_marker on_l <> strip_marker off_l then
                   if contains off_l "untestable" && contains on_l "commutative" then
                     incr stronger
                   else equal := false)
               (verdict_lines on_report) (verdict_lines off_report)
           with Invalid_argument _ -> equal := false);
          Printf.printf "  %-13s %6d %7d %7d %12d %5.2f/%.2f %6b %8d\n%!" name
            (on_d "dca.static-proved") (on_d "dca.static-fission") (on_d "dca.static-bailouts")
            saved on_s off_s !equal !stronger)
        Dca_progs.Registry.all)

let targets =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("table4", run_table4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("ablation", run_ablation);
    ("perf", run_perf);
    ("interp", run_interp);
    ("jobs", run_jobs);
    ("serve", run_serve);
    ("static", run_static);
  ]

let run_all () = List.iter (fun (_, f) -> f ()) targets

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> run_all ()
  | [ _; "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) targets;
      print_endline "all"
  | _ :: args ->
      List.iter
        (fun arg ->
          if arg = "all" then run_all ()
          else
            match List.assoc_opt arg targets with
            | Some f -> f ()
            | None ->
                Printf.eprintf "unknown target '%s' (use --list)\n" arg;
                exit 1)
        args
  | [] -> run_all ()

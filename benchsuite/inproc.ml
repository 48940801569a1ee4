(* The in-process workloads: the full Session pipeline over the registry
   corpus (registry) and over generated programs (fuzz), one caller,
   closed loop, jobs = 1. *)

open Common
module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Benchmark = Dca_progs.Benchmark
module Prng = Dca_support.Prng

(* ------------------------------------------------------------------ *)
(* Set-up: a fresh process up to its first compiled Session            *)
(* ------------------------------------------------------------------ *)

(* What the child does: the first Session of a process on a trivial
   program, through the frontend.  Module initialisation, Session
   creation and the first compile are what a later change could move
   work into.  Then a pace reading, printed with its own duration: the
   child may run on the other CPU, whose pace the parent's readings do
   not track. *)
let setup_probe () =
  Session.with_session
    ~options:Session.Options.(default |> with_jobs 1)
    (Session.Source { file = "probe.mc"; source = "void main() { int i; i = 1; }"; input = [] })
    (fun s -> ignore (Session.ir s));
  let t0 = now_ns () in
  let pace = Pace.best_of_three () in
  Printf.printf "%.0f %d\n" pace (now_ns () - t0)

(* Median over several fresh children of spawn-to-exit, less the child's
   pace reading, at the pace that reading gives.  The wait blocks (no
   polling), so the time is the child's own. *)
let set_setup cfg o =
  let samples = if cfg.smoke then 3 else 21 in
  let times =
    List.init samples (fun _ ->
        let out, into = Unix.pipe ~cloexec:true () in
        let t0 = now_ns () in
        let pid = spawn Sys.executable_name [ "--setup-probe" ] ~stdout:into ~stderr:Unix.stderr in
        Unix.close into;
        let _, status = Unix.waitpid [] pid in
        let t1 = now_ns () in
        reap pid;
        let ic = Unix.in_channel_of_descr out in
        let line = In_channel.input_line ic in
        close_in ic;
        match (status, Option.bind line (fun l -> Scanf.sscanf_opt l "%f %d" (fun p d -> (p, d)))) with
        | Unix.WEXITED 0, Some (pace, reading_ns) ->
            float_of_int (t1 - t0 - reading_ns) *. Pace.reference_ns /. pace /. 1e9
        | _ -> failwith "setup probe failed")
  in
  set o "setup_s" (Stats.median times) ~note:(Printf.sprintf "median of %d fresh processes" samples)

(* ------------------------------------------------------------------ *)
(* One item: the whole pipeline on one program                         *)
(* ------------------------------------------------------------------ *)

type item = {
  t0 : int;
  t1 : int;  (** Session creation through plan *)
  info : Dca_analysis.Proginfo.t;
  results : Driver.loop_result list;
  report : string;
}

(* Time each stage from outside, by the public Session accessors.  A
   traced item runs pinned to its own telemetry context, so its spans and
   counters are exactly its own; an untraced one takes pace readings
   inside (Pace.within). *)
let analyse ?layers origin =
  (if Option.is_none layers then Pace.within else fun f -> f ()) @@ fun () ->
  let ctx = Option.map (fun _ -> Telemetry.Ctx.create ~tracing:true ~counting:true ()) layers in
  let options = Session.Options.(default |> with_jobs 1) in
  let options =
    match ctx with Some c -> Session.Options.with_telemetry c options | None -> options
  in
  let t0 = now_ns () in
  Session.with_session ~options origin (fun s ->
      let stage f =
        let a = now_ns () in
        let v = f s in
        (v, now_ns () - a)
      in
      let _, frontend = stage Session.ir in
      let info, analysis = stage Session.proginfo in
      let results, dca = stage Session.dca_results in
      let report, rep = stage Session.report in
      let _, profiling = stage Session.profile in
      let _, parallel = stage (fun s -> Session.plan s) in
      let t1 = now_ns () in
      let ns = t1 - t0 in
      (match (layers, ctx) with
      | Some l, Some c ->
          l.items <- l.items + 1;
          List.iter
            (fun (name, t) -> add l name (ms_of_ns t))
            [
              ("item.ms", ns);
              ("frontend.ms", frontend);
              ("analysis.ms", analysis);
              ("dca.ms", dca);
              ("report.ms", rep);
              ("profiling.ms", profiling);
              ("parallel.ms", parallel);
            ];
          add_spans l ~only_dca:true (Spans.fold (Telemetry.Ctx.events c));
          add_counters l (Session.telemetry s)
      | _ -> ());
      { t0; t1; info; results; report })

let aborted results =
  List.exists
    (fun r -> match r.Driver.lr_decision with Driver.Aborted _ -> true | _ -> false)
    results

(* Item checks common to both workloads: no raise, no aborted loop, the
   same report as the first time this program ran. *)
let checked o ~name ~reference ~extra run =
  attempt o;
  match run () with
  | exception e ->
      fail o (Printf.sprintf "%s: raised %s" name (Printexc.to_string e));
      None
  | it ->
      let problem =
        if aborted it.results then Some "a loop was aborted"
        else
          match Hashtbl.find_opt reference name with
          | Some r when r <> it.report -> Some "report differs from its first run"
          | Some _ -> extra it
          | None ->
              Hashtbl.replace reference name it.report;
              extra it
      in
      Option.iter (fun p -> fail o (name ^ ": " ^ p)) problem;
      Some it

(* ------------------------------------------------------------------ *)
(* The pass loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Whole passes until the run's time is spent: a pass starts only if one
   more of the last pass's length still fits, and at least [min_passes]
   run.  Traced runs alternate untraced and traced passes, the pairs
   giving the tracing overhead.  Returns the untraced passes' time, summed,
   at the reference pace; a pace reading closes the last pass. *)
let passes cfg ~min_passes ~max_passes run_pass =
  let deadline = deadline_ns cfg in
  let rec go i untraced =
    let traced = cfg.trace && i mod 2 = 1 in
    let t0 = now_ns () in
    run_pass ~index:i ~traced;
    let t1 = now_ns () in
    let untraced = if traced then untraced else (t0, t1) :: untraced in
    if i + 1 < min_passes || (i + 1 < max_passes && t1 + (t1 - t0) <= deadline) then
      go (i + 1) untraced
    else untraced
  in
  let untraced = go 0 [] in
  Pace.read ();
  List.fold_left (fun acc span -> acc +. Pace.scaled_ms span) 0.0 untraced

type timing = {
  paired : bool;  (** keep per-item times for the tracing-overhead pairs *)
  untraced : (string, (int * int) list) Hashtbl.t;  (** per item: its runs' start and end *)
  traced : (string, (int * int) list) Hashtbl.t;
  mutable latencies : (int * int) list;  (** untraced items: start, end *)
  mutable items : int;
}

let timing cfg =
  { paired = cfg.trace; untraced = Hashtbl.create 64; traced = Hashtbl.create 64; latencies = []; items = 0 }

let record tm ~traced name it =
  let push tbl =
    if tm.paired then
      Hashtbl.replace tbl name ((it.t0, it.t1) :: Option.value (Hashtbl.find_opt tbl name) ~default:[])
  in
  if traced then push tm.traced
  else begin
    push tm.untraced;
    tm.latencies <- (it.t0, it.t1) :: tm.latencies;
    tm.items <- tm.items + 1
  end

(* Throughput counts the untraced passes' whole wall time, the harness's
   own work between items included, so it is not just the reciprocal of
   the mean latency. *)
let finish_timing o tm ~pass_ms ~tail ~layers =
  set_tail o ~tail (List.map Pace.scaled_ms tm.latencies);
  set o "throughput_per_s"
    (float_of_int tm.items /. (pass_ms /. 1e3))
    ~note:(Printf.sprintf "%d items over untraced pass wall time" tm.items);
  set o "peak_rss_mb" (vm_hwm_mb 0);
  match layers with
  | None -> ()
  | Some l ->
      finish_layers o l;
      set_trace_overhead o (overhead_pairs tm.untraced tm.traced)

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

(* The paper's corpus through the full pipeline, each round in a seeded
   order.  Beyond the common checks, no loop the benchmark declares
   order-dependent may be judged commutative. *)
let registry cfg =
  let o = outcome () in
  set_setup cfg o;
  let programs =
    if cfg.smoke then List.map Dca_progs.Registry.find_exn [ "DC"; "IS" ]
    else Dca_progs.Registry.all
  in
  let rng = Prng.create cfg.seed in
  let reference = Hashtbl.create 32 in
  let layers = if cfg.trace then Some (layers ()) else None in
  let tm = timing cfg in
  let known_sequential bm it =
    let ids = Benchmark.resolve it.info bm.Benchmark.bm_known_sequential in
    if
      List.exists
        (fun r -> List.mem r.Driver.lr_loop.Dca_analysis.Loops.l_id ids && Driver.is_commutative r)
        it.results
    then Some "an order-dependent loop was judged commutative"
    else None
  in
  let run_pass ~index:_ ~traced =
    List.iter
      (fun bm ->
        let name = bm.Benchmark.bm_name in
        let layers = if traced then layers else None in
        (match
           checked o ~name ~reference ~extra:(known_sequential bm) (fun () ->
               analyse ?layers (Session.Benchmark bm))
         with
        | Some it -> record tm ~traced name it
        | None -> ());
        Pace.tick ())
      (shuffled rng programs)
  in
  let min_passes = if cfg.trace || not cfg.smoke then 2 else 1 in
  let pass_ms =
    passes cfg ~min_passes ~max_passes:(if cfg.smoke then min_passes else max_int) run_pass
  in
  finish_timing o tm ~pass_ms ~tail:(Mean_beyond 75) ~layers;
  if cfg.trace then begin
    probe_interp_and_digest o
      (List.map (fun bm -> (Benchmark.compile bm, bm.Benchmark.bm_input)) programs);
    not_exercised o Schema.(fuzz_layers @ serve_layers @ serve_cold_layers @ serve_mixed_layers)
  end;
  o

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_corpus = 3000
let fuzz_max_iters = 5

(* Generated programs: tiny, so frontend, analysis and session set-up
   weigh as much as the dynamic stage.  After the clock stops, every
   program's verdict is checked against the exhaustive permutation
   oracle. *)
let fuzz cfg =
  let o = outcome () in
  set_setup cfg o;
  let count = if cfg.smoke then 50 else fuzz_corpus in
  let root = Prng.create cfg.seed in
  let corpus =
    Array.init count (fun _ ->
        let g = Dca_gen.Gen_program.generate ~max_iters:fuzz_max_iters (Prng.split root) in
        g.Dca_gen.Gen_program.g_source)
  in
  let name i = Printf.sprintf "fuzz%04d.mc" i in
  let reference = Hashtbl.create count in
  let layers = if cfg.trace then Some (layers ()) else None in
  let tm = timing cfg in
  let order = Prng.split root in
  let run_pass ~index:_ ~traced =
    List.iter
      (fun i ->
        let layers = if traced then layers else None in
        (match
           checked o ~name:(name i) ~reference ~extra:(fun _ -> None) (fun () ->
               analyse ?layers (Session.Source { file = name i; source = corpus.(i); input = [] }))
         with
        | Some it -> record tm ~traced (name i) it
        | None -> ());
        Pace.tick ())
      (shuffled order (List.init count Fun.id))
  in
  let min_passes = if cfg.trace then 2 else if cfg.smoke then 1 else 3 in
  let pass_ms =
    passes cfg ~min_passes ~max_passes:(if cfg.smoke then min_passes else max_int) run_pass
  in
  finish_timing o tm ~pass_ms ~tail:(Percentile 99) ~layers;
  (* the oracle cross-check, once per distinct program *)
  let missed = ref 0 in
  Array.iteri
    (fun i src ->
      let out = Dca_gen.Fuzz_driver.check_source ~metamorphic:false ~index:i src in
      (match (out.Dca_gen.Fuzz_driver.po_oracle, out.Dca_gen.Fuzz_driver.po_dca) with
      | Dca_gen.Oracle.Non_commutative _, Some Driver.Commutative -> incr missed
      | _ -> ());
      match out.Dca_gen.Fuzz_driver.po_violations with
      | [] -> ()
      | v :: _ ->
          fail o
            (Printf.sprintf "%s: %s (%s)" (name i)
               (Dca_gen.Fuzz_driver.violation_kind_to_string v.Dca_gen.Fuzz_driver.vi_kind)
               v.Dca_gen.Fuzz_driver.vi_detail))
    corpus;
  set o "fuzz.missed_by_sampling_ratio" (float_of_int !missed /. float_of_int count);
  if cfg.trace then begin
    probe_interp_and_digest o
      (List.init (min count 200) (fun i -> (Dca_ir.Lower.compile ~file:(name i) corpus.(i), [])));
    not_exercised o Schema.(serve_layers @ serve_cold_layers @ serve_mixed_layers)
  end;
  o

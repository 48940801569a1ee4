(* The serve workloads: a real `dca serve` child process, driven over
   its Unix-domain socket by one client, closed loop, on one connection.

   serve-cold   fresh daemon and cache per pass: every loop misses and
                is stored; then three restarts over the same cache read
                every loop back from disk.
   serve-mixed  a pre-warmed daemon and the planned traffic mix: warm
                names, edits of every program (each followed by the
                unedited program), and a few new programs. *)

open Common
module Session = Dca_core.Session
module Protocol = Dca_serve.Protocol
module Client = Dca_serve.Client
module Prng = Dca_support.Prng

(* serve-cold analyses this fixed set by name: LU, whose cold daemon
   request is the slowest of the NPB ports, plus the fourteen registry
   programs with the shortest dynamic stage, so a cold pass takes a few
   seconds and a run holds several. *)
let cold_programs =
  [
    "LU"; "DC"; "IS"; "MG"; "429.mcf"; "300.twolf"; "ks"; "otter"; "bh"; "treeadd"; "perimeter";
    "hash"; "ising"; "spmatmat"; "water-spatial";
  ]

(* serve-mixed serves the whole registry. *)
let registry_programs = List.map (fun bm -> bm.Dca_progs.Benchmark.bm_name) Dca_progs.Registry.all

let smoke_programs = [ "DC"; "IS"; "hash" ]

let compiled names =
  List.map
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      (Dca_progs.Benchmark.compile bm, bm.Dca_progs.Benchmark.bm_input))
    names

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; trace : string option; errlog : string }

let started = ref 0

(* Spawn a daemon over [cache] and wait until it answers a ping;
   returns the daemon and the span from spawn to ping. *)
let start cfg ~cache ~traced =
  incr started;
  let base = Filename.concat cfg.workdir (Printf.sprintf "d%d" !started) in
  let sock = Filename.concat cfg.workdir "d.sock" in
  let errlog = base ^ ".err" and trace = if traced then Some (base ^ ".jsonl") else None in
  let args =
    [ "serve"; "--socket"; sock; "--cache-dir"; cache; "--workers"; "2"; "--jobs"; "1" ]
    @ match trace with Some t -> [ "--trace"; t; "--stats" ] | None -> []
  in
  let err = Unix.openfile errlog [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now_ns () in
  let pid = spawn cfg.dca args ~stdout:devnull ~stderr:err in
  Unix.close err;
  Unix.close devnull;
  let ping () =
    Client.with_client sock (fun c ->
        Client.request c { Protocol.default_request with Protocol.rq_id = 1 })
  in
  let limit = t0 + 20_000_000_000 in
  let rec wait () =
    match ping () with
    | Ok rp when Protocol.ok rp -> (t0, now_ns ())
    | _ when now_ns () > limit -> failwith "daemon did not answer a ping within 20 s"
    | _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            (* a fine poll: the time to first ping is a few milliseconds *)
            Unix.sleepf 0.0002;
            wait ()
        | _ ->
            reap pid;
            failwith
              ("daemon exited at start-up: " ^ In_channel.with_open_text errlog In_channel.input_all))
  in
  let ready = wait () in
  ({ pid; sock; trace; errlog }, ready)

let request_exn conn rq =
  match Client.request conn rq with
  | Ok rp -> rp
  | Error e -> failwith ("serve request failed: " ^ e)

let analyze_rq ~id program =
  { Protocol.default_request with Protocol.rq_id = id; rq_op = Protocol.Analyze; rq_program = Some program }

(* The programs in order over one connection, closed loop, with a pace
   reading between requests when one is due; [each] gets every reply
   with its span, from send to reply. *)
let closed_loop d programs ~each =
  match Client.connect d.sock with
  | Error e -> failwith ("connect: " ^ e)
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          List.iteri
            (fun i (key, program) ->
              let t0 = now_ns () in
              let rp = request_exn conn (analyze_rq ~id:(i + 1) program) in
              each key rp (t0, now_ns ());
              Pace.tick ())
            programs)

let by_name names = List.map (fun name -> (name, Protocol.Named name)) names

(* Cache and service counters from the stats verb: the engine's
   [cache.*] counters and the metrics plane's counters. *)
let stats d =
  let rq = { Protocol.default_request with Protocol.rq_op = Protocol.Stats } in
  match Client.with_client d.sock (fun c -> Client.request c rq) with
  | Error e -> failwith ("stats request failed: " ^ e)
  | Ok rp ->
      let metrics =
        match Option.map Dca_serve.Metrics.snapshot_of_json rp.Protocol.rp_metrics with
        | Some (Ok snap) -> snap.Dca_serve.Metrics.sn_counters
        | _ -> []
      in
      rp.Protocol.rp_counters @ metrics

(* Shut down, returning the daemon's peak RSS (read just before). *)
let stop d =
  let hwm = vm_hwm_mb d.pid in
  ignore
    (Client.with_client d.sock (fun c ->
         Client.request c { Protocol.default_request with Protocol.rq_op = Protocol.Shutdown }));
  if not (wait_or_kill d.pid) then failwith "daemon did not shut down cleanly";
  hwm

(* The daemon's --stats table, printed on its stderr at exit. *)
let exit_counters d =
  In_channel.with_open_text d.errlog In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
         | _ -> None)

(* Everything a traced daemon recorded for requests since [since]. *)
let add_trace l d ~since =
  Option.iter
    (fun t -> add_spans l ~only_dca:false (Spans.fold ~since (Spans.read_jsonl t)))
    d.trace;
  add_counters l (exit_counters d)

let delta ~before after =
  List.map (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0)) after

(* Per-request cache and service counters, from stats deltas. *)
let set_service o ~requests deltas =
  let sum k =
    List.fold_left
      (fun acc kvs -> acc +. float_of_int (Option.value (List.assoc_opt k kvs) ~default:0))
      0.0 deltas
  in
  List.iter
    (fun (name, k) -> set o name (sum k /. float_of_int (max 1 requests)))
    [
      ("vcache.mem_hits", "cache.mem_hits");
      ("vcache.disk_hits", "cache.disk_hits");
      ("vcache.misses", "cache.misses");
      ("vcache.stores", "cache.stores");
      ("vcache.evictions", "cache.evictions");
      ("vcache.corrupt", "cache.corrupt");
    ];
  let hits = sum "cache.mem_hits" +. sum "cache.disk_hits" in
  let lookups = hits +. sum "cache.misses" in
  set o "vcache.hit_ratio" (if lookups > 0.0 then hits /. lookups else 0.0);
  set o "serve.shed" (sum "dca_requests_shed_total");
  set o "serve.timeouts" (sum "dca_requests_timeout_total");
  set o "serve.worker_restarts" (sum "dca_worker_restarts_total")

(* The in-process reference: what `dca analyze --jobs 1` prints, and how
   long its dynamic stage took. *)
let reference origin =
  Session.with_session ~options:Session.Options.(default |> with_jobs 1) origin (fun s ->
      ignore (Session.proginfo s);
      let t0 = now_ns () in
      ignore (Session.dca_results s);
      let dca_ns = now_ns () - t0 in
      (Session.report s, dca_ns))

let reply_problem rp ok =
  if Protocol.ok rp then ok rp
  else
    Some
      (Protocol.status_to_string rp.Protocol.rp_status
      ^ " reply: "
      ^ Option.value rp.Protocol.rp_error ~default:"")

(* ------------------------------------------------------------------ *)
(* serve-cold                                                          *)
(* ------------------------------------------------------------------ *)

type sample = { span : int * int; engine : int }

let lat s = snd s.span - fst s.span

let serve_cold cfg =
  let o = outcome () in
  let names = if cfg.smoke then smoke_programs else cold_programs in
  let rng = Prng.create cfg.seed in
  let layers = if cfg.trace then Some (layers ()) else None in
  let spawns = ref [] and peak = ref 0.0 and service = ref [] and requests = ref 0 in
  let cold = ref [] and cold_pass = ref [] and warm = ref [] and warm_pass = ref [] in
  let cold_reports = Hashtbl.create 16 in
  let untraced_times = Hashtbl.create 16 and traced_times = Hashtbl.create 16 in
  let check name rp ok =
    attempt o;
    incr requests;
    Option.iter (fun p -> fail o (name ^ ": " ^ p)) (reply_problem rp ok)
  in
  (* one daemon over [cache], the names in a seeded order; returns the
     pass, from the first request to the last reply *)
  let daemon_pass ~cache ~traced each =
    let d, ping = start cfg ~cache ~traced in
    spawns := ping :: !spawns;
    let t0 = now_ns () in
    closed_loop d (by_name (shuffled rng names)) ~each:(fun name rp span ->
        each name rp { span; engine = rp.Protocol.rp_elapsed_ns });
    let pass = (t0, now_ns ()) in
    service := stats d :: !service;
    peak := Float.max !peak (stop d);
    (d, t0, pass)
  in
  let cold_ok name rp =
    if rp.Protocol.rp_hits <> 0 || rp.Protocol.rp_misses = 0 then
      Some
        (Printf.sprintf "cold reply had %d hits, %d misses" rp.Protocol.rp_hits rp.Protocol.rp_misses)
    else
      match Hashtbl.find_opt cold_reports name with
      | Some r when Some r <> rp.Protocol.rp_report -> Some "cold report differs from an earlier pass"
      | _ ->
          Hashtbl.replace cold_reports name (Option.value rp.Protocol.rp_report ~default:"");
          None
  in
  let warm_ok name rp =
    if rp.Protocol.rp_misses <> 0 then
      Some (Printf.sprintf "disk-warm reply had %d misses" rp.Protocol.rp_misses)
    else if rp.Protocol.rp_report <> Hashtbl.find_opt cold_reports name then
      Some "disk-warm report differs from the cold one"
    else None
  in
  let run_pass ~index ~traced =
    let cache = Filename.concat cfg.workdir (Printf.sprintf "cache%d" index) in
    let traced_samples = ref [] in
    let d, t0, pass =
      daemon_pass ~cache ~traced (fun name rp s ->
          check name rp (cold_ok name);
          let times = if traced then traced_times else untraced_times in
          Hashtbl.replace times name (s.span :: Option.value (Hashtbl.find_opt times name) ~default:[]);
          if traced then traced_samples := s :: !traced_samples else cold := s :: !cold)
    in
    (match layers with
    | Some l when traced ->
        l.items <- l.items + List.length !traced_samples;
        List.iter
          (fun s ->
            add l "item.ms" (ms_of_ns (lat s));
            add l "serve.wait.ms" (ms_of_ns (lat s - s.engine)))
          !traced_samples;
        add_trace l d ~since:t0
    | _ -> cold_pass := pass :: !cold_pass);
    for _ = 1 to 3 do
      let _, _, pass =
        daemon_pass ~cache ~traced:false (fun name rp s ->
            check name rp (warm_ok name);
            warm := s :: !warm)
      in
      warm_pass := (snd pass - fst pass) :: !warm_pass
    done
  in
  let min_passes = if cfg.trace then 2 else if cfg.smoke then 1 else 3 in
  ignore
    (Inproc.passes cfg ~min_passes ~max_passes:(if cfg.smoke then min_passes else max_int) run_pass);
  set o "setup_s"
    (Stats.median (List.map Pace.scaled_ms !spawns) /. 1e3)
    ~note:(Printf.sprintf "median spawn-to-ping of %d daemons" (List.length !spawns));
  set_tail o ~tail:(Mean_beyond 50) (List.map (fun s -> Pace.scaled_ms s.span) !cold);
  let cold_ms = List.fold_left (fun acc span -> acc +. Pace.scaled_ms span) 0.0 !cold_pass in
  set o "throughput_per_s"
    (float_of_int (List.length !cold) /. (cold_ms /. 1e3))
    ~note:(Printf.sprintf "%d cold requests, %d passes" (List.length !cold) (List.length !cold_pass));
  set o "peak_rss_mb" !peak ~note:"largest daemon VmHWM";
  (* after the clock: every cold reply must equal the one-shot CLI's *)
  let dca_sum = ref 0 in
  List.iter
    (fun name ->
      let report, dca_ns = reference (Session.Benchmark (Dca_progs.Registry.find_exn name)) in
      dca_sum := !dca_sum + dca_ns;
      if Hashtbl.find_opt cold_reports name <> Some report then begin
        attempt o;
        fail o (name ^ ": cold reply differs from the in-process report")
      end)
    names;
  Option.iter
    (fun l ->
      finish_layers o l;
      set_service o ~requests:!requests !service;
      let ms f samples = List.map (fun s -> ms_of_ns (f s)) samples in
      let wait s = lat s - s.engine in
      set o "serve.engine_p50_ms" (median_or_zero (ms (fun s -> s.engine) !cold));
      set o "serve.engine_p90_ms" (pct_or_max 90 (ms (fun s -> s.engine) !cold));
      set o "serve.wait_p50_ms" (median_or_zero (ms wait !cold));
      set o "serve.wait_p90_ms" (pct_or_max 90 (ms wait !cold));
      set o "serve.cold_p50_ms" (median_or_zero (ms lat !cold));
      set o "serve.diskwarm_p50_ms" (median_or_zero (ms lat !warm));
      set o "serve.diskwarm_pass_ms" (median_or_zero (List.map ms_of_ns !warm_pass));
      set o "serve.cold_gap_ratio"
        (median_or_zero (List.map (fun (t0, t1) -> float_of_int (t1 - t0)) !cold_pass)
        /. float_of_int (max 1 !dca_sum));
      set_trace_overhead o (overhead_pairs untraced_times traced_times);
      probe_interp_and_digest o (compiled names);
      not_exercised o Schema.(fuzz_layers @ serve_mixed_layers))
    layers;
  o

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

(* The set-up.  The disk cache is filled in process by the engine the
   daemon runs, which also gives every program's cold report; then,
   timed, the daemon restarts over the cache and pre-warms every name
   from disk, [restarts] times.  The last daemon stays up for the load;
   in a traced run it is the traced one, and its set-up against the
   untraced ones' gives the tracing overhead. *)
type prewarmed = {
  d : daemon;
  cold : (string * string) list;  (** program name, cold report *)
  setups : (int * int) list;  (** spawn to pre-warmed, newest first *)
  mutable peak : float;
}

let fill cache names =
  let engine = Dca_serve.Engine.create ~cache_dir:cache ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Dca_serve.Engine.close engine)
    (fun () ->
      List.mapi
        (fun i name ->
          let rp = Dca_serve.Engine.handle engine (analyze_rq ~id:(i + 1) (Protocol.Named name)) in
          if not (Protocol.ok rp) then failwith (name ^ ": a cold set-up request failed");
          (name, Option.value rp.Protocol.rp_report ~default:""))
        names)

let prewarm cfg o names =
  let cache = Filename.concat cfg.workdir "cache" in
  let cold = fill cache names in
  let restarts = if cfg.smoke then 2 else 7 in
  let rec set_up k setups peak =
    let traced = cfg.trace && k = restarts in
    let t0 = now_ns () in
    let d, _ = start cfg ~cache ~traced in
    closed_loop d (by_name names) ~each:(fun name rp _ ->
        if
          (not (Protocol.ok rp))
          || rp.Protocol.rp_misses <> 0
          || rp.Protocol.rp_report <> List.assoc_opt name cold
        then failwith (name ^ ": pre-warm reply is not the cold one"));
    let setups = (t0, now_ns ()) :: setups in
    if k = restarts then { d; cold; setups; peak }
    else set_up (k + 1) setups (Float.max peak (stop d))
  in
  let p = set_up 1 [] 0.0 in
  Pace.read ();
  set o "setup_s"
    (Stats.median (List.map Pace.scaled_ms p.setups) /. 1e3)
    ~note:(Printf.sprintf "median of %d restarts, spawn to pre-warmed" restarts);
  p

(* Insertion points for an edit: just after the opening brace of each
   function that contains a loop, on the brace's own line so loop labels
   (which carry line numbers) do not move. *)
let edit_points (bm : Dca_progs.Benchmark.t) =
  let src = bm.Dca_progs.Benchmark.bm_source and file = bm.Dca_progs.Benchmark.bm_name ^ ".mc" in
  let info = Dca_analysis.Proginfo.analyze (Dca_ir.Lower.compile ~file src) in
  let with_loops =
    List.map (fun (_, l) -> l.Dca_analysis.Loops.l_func) (Dca_analysis.Proginfo.all_loops info)
  in
  let line_start = Array.make (String.length src + 2) 0 in
  let lines = ref 1 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        incr lines;
        line_start.(!lines) <- i + 1
      end)
    src;
  (Dca_frontend.Parser.parse_program ~file src).Dca_frontend.Ast.funcs
  |> List.filter (fun f -> List.mem f.Dca_frontend.Ast.f_name with_loops)
  |> List.map (fun f ->
         let loc = f.Dca_frontend.Ast.f_loc in
         let from = line_start.(loc.Dca_frontend.Loc.line) + max 0 (loc.Dca_frontend.Loc.col - 1) in
         (f.Dca_frontend.Ast.f_name, String.index_from src from '{' + 1))

let edited (bm : Dca_progs.Benchmark.t) at seq =
  let src = bm.Dca_progs.Benchmark.bm_source in
  String.sub src 0 at
  ^ Printf.sprintf " int dca_bench_edit; dca_bench_edit = %d;" seq
  ^ String.sub src at (String.length src - at)

type kind = Warm of string | Edit of string * string | After_edit of string | New of int

(* The mix of one pass, per program: [warm_rounds] warm requests by
   name, one edit followed at once by the unedited program by name; and
   [new_per_pass] new programs in all.  Over the 24 registry programs
   that is 490 requests: 93% warm names (the first hit after each edit
   among them), 5% edits, 2% new programs. *)
let warm_rounds cfg = if cfg.smoke then 2 else 18
let new_per_pass cfg = if cfg.smoke then 1 else 10

(* One pass's requests in a seeded order.  Every edit goes into the
   program's last function with a loop (main in 22 of the 24 registry
   programs), so every pass does the same work and the seed moves only
   the order and the new programs. *)
let mixed_pass cfg rng ~targets ~next_seq =
  let units =
    List.map (fun t -> `Edit t) targets
    @ List.concat (List.init (warm_rounds cfg) (fun _ -> List.map (fun (bm, _) -> `Warm bm) targets))
    @ List.init (new_per_pass cfg) (fun _ -> `New)
  in
  List.concat_map
    (function
      | `Warm (bm : Dca_progs.Benchmark.t) ->
          let name = bm.Dca_progs.Benchmark.bm_name in
          [ (Warm name, Protocol.Named name) ]
      | `Edit ((bm : Dca_progs.Benchmark.t), (func, at)) ->
          let name = bm.Dca_progs.Benchmark.bm_name in
          let source = edited bm at (next_seq ()) and input = bm.Dca_progs.Benchmark.bm_input in
          [
            (Edit (name, func), Protocol.Inline { file = name ^ ".mc"; source; input });
            (After_edit name, Protocol.Named name);
          ]
      | `New ->
          let seq = next_seq () in
          let g = Dca_gen.Gen_program.generate ~max_iters:4 (Prng.split rng) in
          [
            ( New seq,
              Protocol.Inline
                { file = Printf.sprintf "new%d.mc" seq; source = g.Dca_gen.Gen_program.g_source; input = [] }
            );
          ])
    (shuffled rng units)

type sent = { kind : kind; program : Protocol.program_source; span : int * int; rp : Protocol.response }

(* Warm names and after-edit hits must get the cold reply, edits must
   miss, and new programs and a seeded sample of ten edits must get the
   in-process report (computed after the clock stops). *)
let check_mixed o (p : prewarmed) rng sent =
  let edits = List.filter (fun s -> match s.kind with Edit _ -> true | _ -> false) sent in
  let sampled = List.filteri (fun i _ -> i < 10) (shuffled rng edits) in
  let in_process s =
    match s.program with
    | Protocol.Inline { file; source; input } ->
        Some (fst (reference (Session.Source { file; source; input })))
    | Protocol.Named _ -> None
  in
  List.iter
    (fun s ->
      attempt o;
      let label =
        match s.kind with
        | Warm name -> name
        | After_edit name -> name ^ " after an edit"
        | Edit (name, func) -> Printf.sprintf "%s edit of %s" name func
        | New i -> Printf.sprintf "new%d.mc" i
      in
      let ok rp =
        match s.kind with
        | (Warm name | After_edit name) when rp.Protocol.rp_report <> List.assoc_opt name p.cold ->
            Some "report differs from the cold one"
        | Warm _ | After_edit _ -> None
        | Edit _ when rp.Protocol.rp_misses = 0 -> Some "edit reply reports 0 misses"
        | Edit _ when not (List.memq s sampled) -> None
        | Edit _ | New _ ->
            if rp.Protocol.rp_report <> in_process s then Some "reply differs from the in-process report"
            else None
      in
      Option.iter (fun msg -> fail o (label ^ ": " ^ msg)) (reply_problem s.rp ok))
    sent

let serve_mixed cfg =
  let o = outcome () in
  let names = if cfg.smoke then smoke_programs else registry_programs in
  let rng = Prng.create cfg.seed in
  let targets =
    List.map
      (fun name ->
        let bm = Dca_progs.Registry.find_exn name in
        (bm, List.hd (List.rev (edit_points bm))))
      names
  in
  let p = prewarm cfg o names in
  let seq = ref 0 in
  let next_seq () =
    incr seq;
    !seq
  in
  let sent = ref [] in
  let load () =
    let before = stats p.d in
    let start = now_ns () in
    let pass_ms =
      Inproc.passes cfg ~min_passes:1 ~max_passes:(if cfg.smoke then 1 else max_int)
        (fun ~index:_ ~traced:_ ->
          closed_loop p.d
            (List.map (fun (k, prog) -> ((k, prog), prog)) (mixed_pass cfg rng ~targets ~next_seq))
            ~each:(fun (kind, program) rp span -> sent := { kind; program; span; rp } :: !sent))
    in
    (before, start, pass_ms, stats p.d)
  in
  let loaded = try Ok (load ()) with e -> Error e in
  p.peak <- Float.max p.peak (stop p.d);
  let before, start, pass_ms, after = match loaded with Ok x -> x | Error e -> raise e in
  let sent = List.rev !sent in
  check_mixed o p (Prng.split rng) sent;
  set_tail o ~tail:(Mean_beyond 90) (List.map (fun s -> Pace.scaled_ms s.span) sent);
  set o "throughput_per_s"
    (float_of_int (List.length sent) /. (pass_ms /. 1e3))
    ~note:(Printf.sprintf "%d requests over pass wall time" (List.length sent));
  set o "peak_rss_mb" p.peak ~note:"largest daemon VmHWM";
  if cfg.trace then begin
    let l = layers () in
    let engine s = s.rp.Protocol.rp_elapsed_ns in
    let lat s = snd s.span - fst s.span in
    let wait s = lat s - engine s in
    l.items <- List.length sent;
    List.iter
      (fun s ->
        add l "item.ms" (ms_of_ns (lat s));
        add l "serve.wait.ms" (ms_of_ns (wait s)))
      sent;
    add_trace l p.d ~since:start;
    finish_layers o l;
    set_service o ~requests:(List.length sent) [ delta ~before after ];
    let ms f ss = List.map (fun s -> ms_of_ns (f s)) ss in
    let of_kind f = ms lat (List.filter (fun s -> f s.kind) sent) in
    let warm = of_kind (function Warm _ -> true | _ -> false) in
    set o "serve.engine_p50_ms" (median_or_zero (ms engine sent));
    set o "serve.engine_p90_ms" (pct_or_max 90 (ms engine sent));
    set o "serve.wait_p50_ms" (median_or_zero (ms wait sent));
    set o "serve.wait_p90_ms" (pct_or_max 90 (ms wait sent));
    set o "serve.warm_p50_ms" (median_or_zero warm);
    set o "serve.warm_p90_ms" (pct_or_max 90 warm);
    set o "serve.edit_p50_ms" (median_or_zero (of_kind (function Edit _ -> true | _ -> false)));
    set o "serve.after_edit_p50_ms"
      (median_or_zero (of_kind (function After_edit _ -> true | _ -> false)));
    set o "serve.new_p50_ms" (median_or_zero (of_kind (function New _ -> true | _ -> false)));
    let ns (t0, t1) = float_of_int (t1 - t0) in
    (match p.setups with
    | traced :: (_ :: _ as untraced) ->
        set_trace_overhead o [ (Stats.median (List.map ns untraced), ns traced) ]
    | _ -> ());
    probe_interp_and_digest o (compiled names);
    not_exercised o Schema.(fuzz_layers @ serve_cold_layers)
  end;
  o

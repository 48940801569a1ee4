open Dca_support

type origin =
  | Source of { file : string; source : string; input : int list }
  | Benchmark of Dca_progs.Benchmark.t

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

module Options = struct
  type t = {
    jobs : int option;
    config : Commutativity.config option;
    spec : Commutativity.run_spec option;
    deadline_ms : int option;
    heap_words : int option;
    hierarchical : bool;
    static : bool;
    telemetry : Telemetry.Ctx.t option;
  }

  let default =
    {
      jobs = None;
      config = None;
      spec = None;
      deadline_ms = None;
      heap_words = None;
      hierarchical = false;
      static = true;
      telemetry = None;
    }

  let with_jobs jobs t = { t with jobs = Some jobs }
  let with_config config t = { t with config = Some config }
  let with_spec spec t = { t with spec = Some spec }
  let with_deadline_ms ms t = { t with deadline_ms = Some ms }
  let with_heap_words w t = { t with heap_words = Some w }
  let with_hierarchical h t = { t with hierarchical = h }
  let with_static s t = { t with static = s }
  let with_telemetry ctx t = { t with telemetry = Some ctx }

  let of_settings ?jobs ?shuffles ?escalate ?hierarchical ?static ?deadline_ms ?heap_words () =
    let c = Commutativity.default_config in
    let config =
      {
        c with
        Commutativity.cc_schedules = Schedule.presets ?shuffles ();
        cc_escalate = Option.value escalate ~default:c.Commutativity.cc_escalate;
      }
    in
    {
      default with
      jobs;
      config = Some config;
      deadline_ms;
      heap_words;
      hierarchical = Option.value hierarchical ~default:default.hierarchical;
      static = Option.value static ~default:default.static;
    }
end

type t = {
  s_name : string;
  s_file : string;
  s_source : string;
  s_input : int list;
  s_jobs : int;
  s_options : Options.t;
  s_config : Commutativity.config;
  s_spec : Commutativity.run_spec;
  s_hierarchical : bool;
  s_tele_ctx : Telemetry.Ctx.t;
  s_tele_pinned : bool;
  s_tele_baseline : (string * int) list;
  mutable s_pool : Pool.t option;
  mutable s_closed : bool;
  mutable s_ir : Dca_ir.Ir.program option;
  mutable s_info : Dca_analysis.Proginfo.t option;
  mutable s_profile : Dca_profiling.Depprof.profile option;
  mutable s_results : Driver.loop_result list option;
  mutable s_plan : Dca_parallel.Plan.t option;
}

let create ?(options = Options.default) origin =
  let name, file, source, input =
    match origin with
    | Source { file; source; input } -> (Filename.basename file, file, source, input)
    | Benchmark bm ->
        ( bm.Dca_progs.Benchmark.bm_name,
          bm.Dca_progs.Benchmark.bm_name ^ ".mc",
          bm.Dca_progs.Benchmark.bm_source,
          bm.Dca_progs.Benchmark.bm_input )
  in
  (* honor DCA_TRACE / DCA_STATS unless the embedder already configured
     telemetry explicitly; a no-op on every later session *)
  Telemetry.init_from_env ();
  (* honor DCA_FAULTS the same way (a front end's --faults wins) *)
  Faultpoint.init_from_env ();
  let jobs = max 1 (match options.Options.jobs with Some j -> j | None -> Pool.default_jobs ()) in
  let config = Option.value options.Options.config ~default:Commutativity.default_config in
  let spec =
    match options.Options.spec with
    | Some s -> s
    | None ->
        Commutativity.make_run_spec
          ?deadline_ns:(Option.map (fun ms -> ms * 1_000_000) options.Options.deadline_ms)
          ?heap_words:options.Options.heap_words input
  in
  (* The session's telemetry context: the one pinned through the options,
     else the creator's ambient (the global context unless the embedder
     scoped one).  Pinning makes the stages run under the context no
     matter who calls them later. *)
  let tele_ctx, tele_pinned =
    match options.Options.telemetry with
    | Some c -> (c, true)
    | None -> (Telemetry.current (), false)
  in
  {
    s_name = name;
    s_file = file;
    s_source = source;
    s_input = input;
    s_jobs = jobs;
    s_options = options;
    s_config = config;
    s_spec = spec;
    s_hierarchical = options.Options.hierarchical;
    s_tele_ctx = tele_ctx;
    s_tele_pinned = tele_pinned;
    (* the per-session telemetry origin: the context's counter values at
       creation.  Empty while counting is disabled — [telemetry] then
       subtracts nothing, which is also correct (disabled counters
       stay 0). *)
    s_tele_baseline = Telemetry.Ctx.counters tele_ctx;
    s_pool = None;
    s_closed = false;
    s_ir = None;
    s_info = None;
    s_profile = None;
    s_results = None;
    s_plan = None;
  }

let load ?options prog =
  match Dca_progs.Registry.find prog with
  | Some bm -> Ok (create ?options (Benchmark bm))
  | None ->
      if Sys.file_exists prog then
        let source = In_channel.with_open_bin prog In_channel.input_all in
        Ok (create ?options (Source { file = prog; source; input = [] }))
      else Error (Printf.sprintf "'%s' is neither a built-in benchmark nor a file" prog)

let name t = t.s_name
let file t = t.s_file
let source t = t.s_source
let input t = t.s_input
let jobs t = t.s_jobs
let options t = t.s_options
let config t = t.s_config
let spec t = t.s_spec
let hierarchical t = t.s_hierarchical

let memo cell compute store =
  match cell with
  | Some v -> v
  | None ->
      let v = compute () in
      store v;
      v

(* Stage computations of a pinned session run under the pinned context;
   an unpinned session computes under whatever ambient the caller has
   (historically the global context) so nothing changes for existing
   embedders. *)
let in_ctx t f = if t.s_tele_pinned then Telemetry.with_ctx t.s_tele_ctx f else f ()

let ir t =
  memo t.s_ir
    (fun () ->
      in_ctx t (fun () ->
          Telemetry.span ~cat:"frontend" "session.ir" (fun () ->
              Dca_ir.Lower.compile ~file:t.s_file t.s_source)))
    (fun v -> t.s_ir <- Some v)

let proginfo t =
  memo t.s_info
    (fun () ->
      let prog = ir t in
      in_ctx t (fun () ->
          Telemetry.span ~cat:"static" "session.proginfo" (fun () ->
              Dca_analysis.Proginfo.analyze prog)))
    (fun v -> t.s_info <- Some v)

let profile t =
  memo t.s_profile
    (fun () ->
      let info = proginfo t in
      in_ctx t (fun () ->
          Telemetry.span ~cat:"profile" "session.profile" (fun () ->
              Dca_profiling.Depprof.profile_program ~fuel:t.s_spec.Commutativity.rs_fuel
                ~input:t.s_input info)))
    (fun v -> t.s_profile <- Some v)

(* The pool exists only while the session wants parallel stages: started on
   first demand, torn down by [close].  A closed session (or [jobs = 1])
   yields no pool, and the stages run on the engine's default width-1
   pool: the same code, in order, in the caller. *)
let pool_of t =
  if t.s_jobs <= 1 || t.s_closed then None
  else
    match t.s_pool with
    | Some _ as p -> p
    | None ->
        let p = Pool.create ~jobs:t.s_jobs in
        t.s_pool <- Some p;
        Some p

let pool = pool_of

let dca_results t =
  memo t.s_results
    (fun () ->
      let info = proginfo t in
      in_ctx t (fun () ->
          Telemetry.span ~cat:"dynamic" "session.dca" (fun () ->
              Driver.analyze_program ~config:t.s_config ~spec:t.s_spec
                ~hierarchical:t.s_hierarchical ~static:t.s_options.Options.static
                ?pool:(pool_of t) info)))
    (fun v -> t.s_results <- Some v)

let compute_plan t ~machine ~strategy =
  let info = proginfo t in
  let prof = profile t in
  let detected = Driver.commutative_ids (dca_results t) in
  in_ctx t (fun () ->
      Telemetry.span ~cat:"plan" "session.plan" (fun () ->
          Dca_parallel.Planner.select ~machine info prof ~detected ~strategy))

let plan ?machine ?strategy t =
  match (machine, strategy) with
  | None, None ->
      memo t.s_plan
        (fun () ->
          compute_plan t ~machine:Dca_parallel.Machine.default ~strategy:Dca_parallel.Planner.Best_benefit)
        (fun v -> t.s_plan <- Some v)
  | _ ->
      compute_plan t
        ~machine:(Option.value machine ~default:Dca_parallel.Machine.default)
        ~strategy:(Option.value strategy ~default:Dca_parallel.Planner.Best_benefit)

let advise t = Advisor.advise (proginfo t) (profile t) (dca_results t)
let report t = Report.to_string (dca_results t)

(* Counters attributable to this session: the session context's current
   value minus the value at creation.  Counters registered after the
   baseline was taken (first use anywhere in the process) subtract an
   implicit 0.  Zero deltas are elided so a quiet session reports an
   empty list, like a disabled one.  With a pinned context the deltas
   are exact even while other sessions run concurrently in their own
   contexts — nothing else writes into this one. *)
let telemetry t =
  Telemetry.Ctx.counters t.s_tele_ctx
  |> List.filter_map (fun (k, v) ->
         let d = v - (match List.assoc_opt k t.s_tele_baseline with Some b -> b | None -> 0) in
         if d = 0 then None else Some (k, d))

let close t =
  t.s_closed <- true;
  match t.s_pool with
  | Some p ->
      t.s_pool <- None;
      Pool.shutdown p
  | None -> ()

let with_session ?options origin f =
  let t = create ?options origin in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let failure_message = function
  | Dca_frontend.Loc.Error (loc, msg) -> Some (Dca_frontend.Loc.to_string loc ^ ": " ^ msg)
  | Dca_interp.Eval.Trap msg -> Some ("runtime trap: " ^ msg)
  | Dca_interp.Eval.Out_of_fuel -> Some "execution exceeded the fuel bound"
  | Dca_interp.Eval.Deadline_exceeded -> Some "execution exceeded the wall-clock deadline"
  | Dca_interp.Eval.Heap_exhausted -> Some "execution exceeded the heap budget"
  | _ -> None

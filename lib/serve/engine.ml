(* The serve daemon's analysis core: a stateless request handler in
   front of the two-level verdict cache.

   An analyze request is handled in four steps, all scoped to the
   request:

     1. resolve the program (registry name, server-side file, or inline
        source) to a source string + input stream, and build a Session
        over it with the request's options;
     2. compute per-loop cache keys (Progdigest) and probe the verdict
        cache, building a read-only table of resolved loops;
     3. run Driver.analyze_program with the table as its [?lookup] — only
        unresolved loops pay the dynamic stage, on the session's pool
        (started only when a loop is unresolved), merged
        deterministically with the cached verdicts;
     4. store the freshly computed verdicts, close the session, and
        assemble the reply.

   Because cached entries are the exact (decision, outcome) pairs the
   driver would have produced, Report.to_string over the merged result
   list is byte-identical to a cold run — the acceptance criterion the
   serve bench asserts.

   [handle] may be called from many worker domains at once.  A verdict
   depends only on the loop's code, inputs and configuration, so the
   only state requests share is the content-addressed cache (which
   serializes internally), the request-id source, and the daemon's
   telemetry context, where every service fact is counted (the
   descriptors below, plus the cache's and the transport's); two scopes
   keep concurrent requests apart:

     - *Telemetry contexts.*  Each analyze request runs under its own
       Telemetry.Ctx (installed with [with_ctx], propagated into the
       session pool), so its counters are exactly its own work; on
       completion the context is folded into the daemon's context, so
       aggregate stats equal what a serial daemon would report.  The
       reply itself never depends on telemetry — the counters footer is
       a pure fold over the result records — which is why replies are
       byte-identical under any interleaving.  When the daemon is
       *tracing*, requests share the daemon context instead: a trace is
       a whole-daemon artifact, and per-domain event streams must stay
       chronological.

     - *Fault plans.*  A request carrying ["faults"] runs under a fresh
       plan installed with Faultpoint.with_plan (propagated into the
       session pool the same way), so its injected failures fire in
       that request only, concurrent requests keep running, and the
       daemon's own --faults plan is neither consulted nor reset by it. *)

module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Commutativity = Dca_core.Commutativity
module Report = Dca_core.Report
module Schedule = Dca_core.Schedule
module Faultpoint = Dca_support.Faultpoint
module Telemetry = Dca_support.Telemetry

(* Fault site at the mouth of the analysis pipeline: an injected raise
   here models the engine blowing up before any containment layer
   exists, and must become an error *reply*, never a dead daemon. *)
let fp_analyze = Faultpoint.site "engine.analyze"

(* The engine's service facts, added into the daemon's context whether
   or not it is counting. *)
let counter ?gauge name = Telemetry.counter ~kind:Telemetry.Diag ?gauge name
let c_requests = counter "dca_requests_total"
let c_errors = counter "dca_requests_errors_total"
let c_analyze = counter "dca_analyze_requests_total"
let c_hits = counter "dca_cache_hits_total"
let c_misses = counter "dca_cache_misses_total"
let g_inflight = counter ~gauge:true "dca_inflight_requests"
let h_duration = Telemetry.histogram "dca_request_duration_seconds"

type t = {
  cache : Vcache.t;
  tele : Telemetry.Ctx.t;  (* the daemon's context (ambient at create) *)
  default_jobs : int option;
  requests : int Atomic.t;  (* the source of server-assigned request ids *)
}

let create ?cache_dir ?cache_capacity ?jobs () =
  let on_degrade msg =
    (* log-once is guaranteed by the Vcache latch *)
    Printf.eprintf "dca serve: disk cache write failed (%s); continuing memory-only\n%!" msg
  in
  {
    cache = Vcache.create ?dir:cache_dir ?capacity:cache_capacity ~on_degrade ();
    tele = Telemetry.current ();
    default_jobs = jobs;
    requests = Atomic.make 0;
  }

let close (_ : t) = ()

(* ------------------------------------------------------------------ *)
(* Program resolution                                                  *)
(* ------------------------------------------------------------------ *)

let resolve_program = function
  | Protocol.Named name -> (
      match Dca_progs.Registry.find name with
      | Some bm ->
          Ok
            ( bm.Dca_progs.Benchmark.bm_name ^ ".mc",
              bm.Dca_progs.Benchmark.bm_source,
              bm.Dca_progs.Benchmark.bm_input )
      | None ->
          if Sys.file_exists name then
            Ok (name, In_channel.with_open_bin name In_channel.input_all, [])
          else Error (Printf.sprintf "'%s' is neither a built-in benchmark nor a file" name))
  | Protocol.Inline { file; source; input } -> Ok (file, source, input)

(* The request's analysis options, built by the function every `dca`
   command builds its own with, so the daemon and the one-shot CLI share
   one key space. *)
let options_of_request t (rq : Protocol.request) =
  Session.Options.of_settings
    ?jobs:(match rq.Protocol.rq_jobs with None -> t.default_jobs | j -> j)
    ?shuffles:rq.Protocol.rq_shuffles ~escalate:(not rq.Protocol.rq_no_escalate)
    ~hierarchical:rq.Protocol.rq_hierarchical ~static:(not rq.Protocol.rq_no_static)
    ?deadline_ms:rq.Protocol.rq_deadline_ms ?heap_words:rq.Protocol.rq_heap_words ()

(* ------------------------------------------------------------------ *)
(* Cached analysis                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  eo_report : string;
  eo_loops : Protocol.loop_info list;
  eo_hits : int;
  eo_misses : int;
}

let analyze_with_cache t s (rq : Protocol.request) =
  let info = Session.proginfo s in
  let pd = Progdigest.of_program (Session.ir s) in
  let prog_digest = Progdigest.program_digest pd in
  let static = (Session.options s).Session.Options.static in
  let config_digest =
    Progdigest.config_digest ~hierarchical:(Session.hierarchical s) ~static (Session.config s)
  in
  let spec_digest = Progdigest.spec_digest (Session.spec s) in
  let key_of (loop : Dca_analysis.Loops.loop) =
    Progdigest.loop_key pd ~config_digest ~spec_digest ~func:loop.Dca_analysis.Loops.l_func
      ~loop_id:loop.Dca_analysis.Loops.l_id
  in
  (* A fault-carrying request runs outside the cache entirely: hits would
     mask the injected failures it exists to exercise, and its verdicts
     may be skewed by them. *)
  let cache_on = rq.Protocol.rq_faults = None in
  let all_loops = Dca_analysis.Proginfo.all_loops info in
  (* probe phase: sequential, before any parallel work — the resolved
     table is read-only by the time worker domains consult it *)
  let resolved : (string, Driver.loop_result) Hashtbl.t = Hashtbl.create 16 in
  if cache_on && not rq.Protocol.rq_no_cache then
    List.iter
      (fun ((_, loop) : Dca_analysis.Proginfo.func_info * Dca_analysis.Loops.loop) ->
        match Vcache.find t.cache ~prog_digest (key_of loop) with
        | Some e ->
            Hashtbl.replace resolved loop.Dca_analysis.Loops.l_id
              {
                Driver.lr_loop = loop;
                lr_label = Dca_analysis.Proginfo.loop_label info loop;
                lr_decision = e.Vcache.e_decision;
                lr_outcome = e.Vcache.e_outcome;
                (* restored provenance: a cached static verdict renders
                   byte-identically to a freshly proved one *)
                lr_provenance = e.Vcache.e_provenance;
              }
        | None -> ())
      all_loops;
  let lookup _fi (loop : Dca_analysis.Loops.loop) =
    Hashtbl.find_opt resolved loop.Dca_analysis.Loops.l_id
  in
  (* the pool's domains are worth starting only if some loop needs work *)
  let pool = if Hashtbl.length resolved < List.length all_loops then Session.pool s else None in
  let results =
    Driver.analyze_program ~config:(Session.config s) ~spec:(Session.spec s)
      ~hierarchical:(Session.hierarchical s) ~static ?pool ~lookup info
  in
  let hits = ref 0 and misses = ref 0 in
  let loops =
    List.map
      (fun (r : Driver.loop_result) ->
        let cached = Hashtbl.mem resolved r.Driver.lr_loop.Dca_analysis.Loops.l_id in
        (* store phase: every freshly computed verdict that holds for the
           loop's code and inputs *)
        (match r.Driver.lr_decision with
        | _ when cached -> incr hits
        (* derived from sibling verdicts, and free to recompute *)
        | Driver.Subsumed _ -> ()
        (* an injected, deadline or heap abort says nothing about the
           loop: stored, it would be served forever *)
        | Driver.Aborted _ -> incr misses
        | _ ->
            incr misses;
            if cache_on then
              Vcache.store t.cache ~prog_digest (key_of r.Driver.lr_loop)
                {
                  Vcache.e_decision = r.Driver.lr_decision;
                  e_outcome = r.Driver.lr_outcome;
                  e_provenance = r.Driver.lr_provenance;
                });
        {
          Protocol.li_label = r.Driver.lr_label;
          li_decision = Driver.decision_to_string r.Driver.lr_decision;
          li_cached = cached;
          li_provenance = r.Driver.lr_provenance;
        })
      results
  in
  {
    eo_report = Report.to_string results;
    eo_loops = loops;
    eo_hits = !hits;
    eo_misses = !misses;
  }

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-request fault containment: a request's fault plan is installed
   for exactly that request's scope; whatever escapes every inner
   containment layer (loop-level Aborted verdicts absorb most injected
   faults) is caught here and turned into an error *reply* — the daemon
   survives, and the next request starts from the daemon's own plan,
   untouched. *)
let run_analyze t (rq : Protocol.request) =
  let analyze () =
    Faultpoint.hit_unit fp_analyze;
    match resolve_program (Option.get rq.Protocol.rq_program) with
    | Error msg -> Error msg
    | Ok (file, source, input) ->
        Session.with_session ~options:(options_of_request t rq)
          (Session.Source { file; source; input })
          (fun s -> Ok (analyze_with_cache t s rq))
  in
  try
    match rq.Protocol.rq_faults with
    | None -> analyze ()
    | Some text -> (
        match Faultpoint.parse text with
        | Ok specs -> Faultpoint.with_plan (Faultpoint.make specs) analyze
        | Error e -> Error ("invalid fault plan: " ^ e))
  with
  | Faultpoint.Injected msg -> Error ("crash: " ^ msg)
  | Faultpoint.Bad_plan msg -> Error ("invalid fault plan: " ^ msg)
  | e -> (
      match Session.failure_message e with
      | Some msg -> Error msg
      | None -> Error ("internal error: " ^ Printexc.to_string e))

(* Every reply goes through here: it draws the server request id, counts
   the request (and its failure), keeps the in-flight gauge, and records
   the latency.  A [stats] reply is read after that bookkeeping, so it
   describes the daemon with this request complete. *)
let respond t ~stats f =
  let req = 1 + Atomic.fetch_and_add t.requests 1 in
  Telemetry.Ctx.add t.tele c_requests 1;
  Telemetry.Ctx.add t.tele g_inflight 1;
  let t0 = Telemetry.now_ns () in
  let rp = f () in
  let elapsed = Telemetry.now_ns () - t0 in
  Telemetry.Ctx.observe t.tele h_duration elapsed;
  if not (Protocol.ok rp) then Telemetry.Ctx.add t.tele c_errors 1;
  Telemetry.Ctx.add t.tele g_inflight (-1);
  let rp = { rp with Protocol.rp_req = req; rp_elapsed_ns = elapsed } in
  if not stats then rp
  else
    let snap = Metrics.snapshot t.tele in
    {
      rp with
      Protocol.rp_counters = List.sort compare (snap.Metrics.sn_counters @ snap.Metrics.sn_gauges);
      rp_metrics = Some (Metrics.snapshot_to_json snap);
    }

let reject t msg =
  respond t ~stats:false (fun () -> Protocol.error_response ~id:0 ("bad request: " ^ msg))

let handle t (rq : Protocol.request) =
  let id = rq.Protocol.rq_id in
  respond t ~stats:(rq.Protocol.rq_op = Protocol.Stats) (fun () ->
      match rq.Protocol.rq_op with
      | Protocol.Ping | Protocol.Stats | Protocol.Shutdown -> Protocol.ok_response ~id
      | Protocol.Analyze -> (
          Telemetry.Ctx.add t.tele c_analyze 1;
          (* Per-request attribution: the analysis runs under its own
             context (mirroring the daemon's counting flag) and is folded
             into the daemon context afterwards, so concurrent requests
             never contaminate each other and the aggregate equals a
             serial daemon's.  Under tracing the daemon context is used
             directly — event streams must stay chronological per
             domain, and a trace is a whole-daemon artifact. *)
          let rctx =
            if Telemetry.Ctx.tracing t.tele then t.tele
            else Telemetry.Ctx.create ~counting:(Telemetry.Ctx.counting t.tele) ()
          in
          let result = Telemetry.with_ctx rctx (fun () -> run_analyze t rq) in
          if rctx != t.tele then Telemetry.Ctx.merge_into ~into:t.tele rctx;
          match result with
          | Ok eo ->
              Telemetry.Ctx.add t.tele c_hits eo.eo_hits;
              Telemetry.Ctx.add t.tele c_misses eo.eo_misses;
              {
                (Protocol.ok_response ~id) with
                Protocol.rp_report = Some eo.eo_report;
                rp_loops = eo.eo_loops;
                rp_hits = eo.eo_hits;
                rp_misses = eo.eo_misses;
              }
          | Error msg -> Protocol.error_response ~id msg))

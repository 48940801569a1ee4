(** The serve daemon's analysis core: a stateless request handler in
    front of the two-level verdict cache ({!Vcache}), independent of any
    transport so tests can drive it directly.

    {!handle} is safe to call from many domains at once.  Each analyze
    request builds its own session, runs under its own
    {!Dca_support.Telemetry.Ctx} (folded into the daemon's context on
    completion, so aggregates match a serial daemon's), and a request
    carrying a fault plan runs under that plan alone
    ({!Dca_support.Faultpoint.with_plan}), so its injected failures
    never reach concurrent requests and never disturb the daemon's own
    plan.  Replies are byte-identical to a serial daemon's under any
    interleaving: the report and its counters footer are pure folds
    over the per-loop results.  Parallelism also lives inside a
    request: unresolved loops run on the session's worker pool and are
    merged deterministically with the cached verdicts, so a reply
    assembled from any mix of cache hits and fresh work is
    byte-identical to a cold [dca analyze] run.

    The engine keeps no counters of its own beyond the source of
    request ids.  Every reply ticks {!Dca_support.Telemetry}
    descriptors in the daemon's context — [dca_requests_total],
    [dca_requests_errors_total], [dca_analyze_requests_total], the
    per-reply [dca_cache_hits_total]/[dca_cache_misses_total], the
    [dca_inflight_requests] gauge and the
    [dca_request_duration_seconds] histogram — whether or not that
    context is counting.  A [Stats] reply carries that context's cells,
    read after its own bookkeeping: as [rp_counters] and as the
    {!Metrics.snapshot} in [rp_metrics]. *)

type t

val create : ?cache_dir:string -> ?cache_capacity:int -> ?jobs:int -> unit -> t
(** [cache_dir] enables the persistent cache level (see {!Vcache.create});
    [jobs] is the default pool width for requests that do not set one.
    The creating domain's ambient telemetry context becomes the daemon's
    context: analyses fold into it, and the engine, its cache and the
    transport count their facts in it. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serve one request.  [Analyze] failures of any kind — unknown program,
    parse error, resource-budget exhaustion, an injected fault escaping
    the per-loop containment, a malformed fault plan — become error
    {e responses}; the engine survives.  Verdicts are cached unless the
    request carries a fault plan, and [Aborted] verdicts are never
    cached.  [Shutdown] is answered like [Ping]; stopping the accept
    loop is the transport's job ({!Server}).  Every response carries the
    server-assigned request id in [rp_req]. *)

val reject : t -> string -> Protocol.response
(** The error reply to a request line that did not parse, with the
    parser's message: it draws a server request id and counts as a
    request and as an error, like any other reply. *)

val close : t -> unit
(** Release the engine's resources: none, since sessions live for one
    request. *)

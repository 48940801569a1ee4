(** Unix-domain-socket transport for the serve {!Engine}, plus the
    defenses that keep it serving (DESIGN.md §15).

    One accept loop feeding [sv_workers] worker domains: each worker
    owns one connection at a time and answers its request lines in
    order, so per-connection replies stay sequential while the daemon
    serves many connections concurrently.  The engine underneath is
    stateless apart from its locked verdict cache (per-request
    sessions, telemetry contexts and fault plans), so every reply is
    byte-identical to a serial daemon's.  [sv_workers = 1]
    recovers the old one-connection-at-a-time behavior.

    Defenses: connections beyond [sv_max_queue] are shed with an
    immediate [busy] reply; a request running past
    [sv_request_timeout_ms] has its reply replaced by a structured
    error by a watchdog domain (the engine call finishes on its own —
    verdicts must never depend on timing); a request whose handling
    raises is busy-replied by its own worker, which closes the
    connection and takes the next one; SIGTERM/SIGINT (with
    [sv_handle_signals]) trigger a graceful drain bounded by
    [sv_drain_timeout_s].  The daemon's own domains are fixed at
    start-up: the workers, plus the watchdog.  A request with a cache
    miss also runs on its session's pool, which spawns [jobs - 1]
    domains — [jobs] is the request's width, else [sv_jobs], else
    {!Dca_support.Pool.default_jobs} (2 on a 2-core machine) — and
    joins them when the request's session closes.  Each defense ticks
    its own Telemetry descriptor in the daemon's context
    ([dca_requests_shed_total], [dca_requests_timeout_total],
    [dca_worker_restarts_total]; the [dca_queue_depth] gauge tracks
    the connection queue). *)

type config = {
  sv_socket : string;  (** Unix-domain socket path *)
  sv_cache_dir : string option;  (** persistent cache directory ({!Vcache}) *)
  sv_cache_capacity : int option;
  sv_jobs : int option;  (** default pool width for requests without one *)
  sv_workers : int;  (** connections served concurrently (default 4) *)
  sv_access_log : string option;
      (** JSONL access log, one object per request (appended); each
          entry carries the server-assigned [req] id also found in the
          reply's [rp_req] and the request's trace span.  Timed-out
          requests log status ["timeout"], crashed ones ["busy"]; a
          line that does not parse gets its own [req] id and logs op
          ["invalid"].  A log that stops being writable is reported
          once to stderr and otherwise ignored. *)
  sv_metrics_file : string option;
      (** Prometheus-style {!Metrics.exposition}, atomically rewritten
          (temp + rename) after every request and on shutdown — a
          scrape target.  A file that stops being writable is logged
          once to stderr and otherwise ignored. *)
  sv_max_requests : int option;
      (** stop after serving this many requests — tests and smoke runs.
          Exact under concurrency and crashes: admission reserves a
          budget slot before the engine runs, and a crashed request
          still consumes its slot (its reply is the [busy] its worker
          sent). *)
  sv_max_queue : int;
      (** overload bound (default 64): a connection accepted while this
          many are already queued gets an immediate [busy] reply and is
          closed — nothing was admitted, so a retry is always safe *)
  sv_request_timeout_ms : int option;
      (** per-request reply deadline, enforced by a watchdog domain:
          past it the client gets an error reply ("request timed out
          after N ms") and the connection is closed, while the engine
          call runs to completion server-side *)
  sv_drain_timeout_s : float;
      (** graceful-drain bound (default 30s): in-flight workers still
          running past it are abandoned with a stderr note instead of
          blocking the exit forever *)
  sv_handle_signals : bool;
      (** install SIGTERM/SIGINT handlers that trigger a graceful
          drain: stop accepting, finish in-flight requests, flush the
          metrics file, remove the socket, return normally.  Default
          [false] — embedders (tests) opt in. *)
}

val default_config : string -> config
(** Defaults for the given socket path: memory-only cache, 4 workers,
    queue bound 64, no request timeout, 30s drain budget, no access
    log, no metrics file, no signal handling, serve until [shutdown]. *)

val run : config -> int
(** Bind (reclaiming a stale socket file from a crashed daemon first,
    but never a live daemon's socket and never a path that is not a
    socket — either makes [bind] fail with [EADDRINUSE]), then serve
    until a [shutdown] request, the request budget is exhausted, or a
    drain signal arrives.  Returns the number of requests served
    (admitted requests exactly — crashed and timed-out requests count,
    shed connections do not).  The socket file is removed on the way
    out, also on exception.  SIGPIPE is
    ignored for the daemon's lifetime: a client hanging up mid-reply
    surfaces as a swallowed [EPIPE], never a dead daemon. *)

(* Unix-domain-socket transport for the serve engine, with the
   defenses that keep it serving (DESIGN.md §15).

   One accept loop feeding a fixed pool of worker domains: accepted
   connections are queued; each worker owns one connection at a time
   and serves its request lines in order, so per-connection replies are
   sequential while the daemon as a whole serves [sv_workers]
   connections concurrently.  The engine underneath is stateless apart
   from its locked verdict cache (each request runs under its own
   session, telemetry context and, if it carries one, fault plan), so
   replies are byte-identical to a serial daemon's.  The daemon's own
   domains are fixed at start-up: the workers, plus the watchdog when
   [sv_request_timeout_ms] is set.  A request with a cache miss also
   runs on its session's pool, which spawns [jobs - 1] domains (the
   request's width, else [sv_jobs], else [Pool.default_jobs], 2 on a
   2-core machine) and joins them when the session closes.

   Request admission is a reservation: a worker reserves a budget slot
   under the state lock *before* handing the line to the engine — with
   [--max-requests n] the daemon serves exactly [n] requests no matter
   how many connections race for the tail of the budget, and a crashed
   request still consumes the slot it reserved.  Once stopped (budget
   exhausted or a [shutdown] request), the accept loop is woken by a
   dummy connect and every active connection is read-shutdown so a
   worker blocked on an idle persistent connection cannot stall the
   exit.

   Four defenses, each counted by a Telemetry descriptor of this module
   in the daemon's context:

   - *Overload shedding.*  The accept loop bounds the connection queue
     at [sv_max_queue]; beyond it a connection gets an immediate [busy]
     reply and is closed ([dca_requests_shed_total]).  Nothing was
     admitted, so a client retry is always safe.

   - *Request timeouts.*  With [sv_request_timeout_ms] the watchdog
     domain scans the in-flight requests and replaces the reply of an
     overdue one with a structured error, then shuts the connection
     ([dca_requests_timeout_total]).  The engine call is *not*
     interrupted: it runs to natural completion so its verdicts stay
     correct and cacheable — only the reply is forfeited.  Exactly one
     side writes a reply: whoever [claim]s it first.

   - *Crash recovery in place.*  An exception that escapes the serving
     of a connection (the [serve.worker] fault site models this) is
     caught by the worker's own loop: the in-flight request gets a
     [busy] reply if the worker still owns it — retrying clients
     converge to byte-identical reports — and keeps its budget slot,
     the connection is closed, and the same domain takes the next one
     ([dca_worker_restarts_total]).

   - *Graceful drain.*  With [sv_handle_signals], SIGTERM/SIGINT set an
     atomic flag and poke the accept loop (nothing that could deadlock
     a handler): the daemon stops accepting, lets in-flight requests
     finish — bounded by [sv_drain_timeout_s] — flushes the metrics
     file, removes the socket, and returns normally.

   Every request is wrapped in a Telemetry span carrying the
   server-assigned request id and appended to the JSONL access log (one
   object per request: timestamp, ids, op, program, status,
   loop/hit/miss counts and elapsed time), and the metrics exposition
   is rewritten to [sv_metrics_file] (atomically, temp + rename) after
   every request — the same id threads the access log, the trace, and
   the reply ([rp_req]), so one request can be followed across all
   three sinks.  An access log or metrics file that stops being
   writable (full disk, revoked permissions) is logged once and
   otherwise ignored. *)

module Faultpoint = Dca_support.Faultpoint
module Telemetry = Dca_support.Telemetry

(* Fault site inside the worker's serving loop, hit with a request in
   flight: an injected raise models a worker crash and must take the
   busy-reply recovery path, never the whole daemon. *)
let fp_worker = Faultpoint.site "serve.worker"

(* The transport's service facts, added into the daemon's context
   whether or not it is counting. *)
let counter ?gauge name = Telemetry.counter ~kind:Telemetry.Diag ?gauge name
let c_shed = counter "dca_requests_shed_total"
let c_timeouts = counter "dca_requests_timeout_total"
let c_restarts = counter "dca_worker_restarts_total"
let g_queue = counter ~gauge:true "dca_queue_depth"

type config = {
  sv_socket : string;
  sv_cache_dir : string option;
  sv_cache_capacity : int option;
  sv_jobs : int option;
  sv_workers : int;  (* concurrent connections served; 1 = the old serial daemon *)
  sv_access_log : string option;
  sv_metrics_file : string option;  (* Prometheus-style exposition, rewritten per request *)
  sv_max_requests : int option;  (* stop after N requests: tests, smoke runs *)
  sv_max_queue : int;  (* shed (busy-reply) connections beyond this queue depth *)
  sv_request_timeout_ms : int option;  (* watchdog bound on a single request's reply *)
  sv_drain_timeout_s : float;  (* graceful-exit bound on in-flight stragglers *)
  sv_handle_signals : bool;  (* SIGTERM/SIGINT trigger a graceful drain *)
}

let default_config socket =
  {
    sv_socket = socket;
    sv_cache_dir = None;
    sv_cache_capacity = None;
    sv_jobs = None;
    sv_workers = 4;
    sv_access_log = None;
    sv_metrics_file = None;
    sv_max_requests = None;
    sv_max_queue = 64;
    sv_request_timeout_ms = None;
    sv_drain_timeout_s = 30.;
    sv_handle_signals = false;
  }

(* A leftover socket file from a crashed daemon would make bind fail.
   Only reclaim the path if it is a socket and nothing answers on it —
   a live daemon's socket, and anything that is not a socket, is left
   alone and surfaces as an address-in-use error. *)
let reclaim_stale_socket path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_SOCK ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      Unix.close probe;
      if not live then ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ()

let program_name = function
  | Some (Protocol.Named n) -> n
  | Some (Protocol.Inline { file; _ }) -> file ^ " (inline)"
  | None -> ""

type inflight = {
  if_rq : Protocol.request;
  if_fd : Unix.file_descr;
  if_start_ns : int;
  if_lock : Mutex.t;
  mutable if_claimed : bool;  (* under if_lock *)
}

(* The reply to an in-flight request has exactly one writer: whoever
   claims it first under [if_lock] — the worker (normal reply), the
   watchdog (timeout error) or the worker's crash handler (busy).  The
   losers never touch the connection.  A winner's [write] runs under
   the lock, and the worker closes the descriptor only after its own
   claim attempt resolved, so the watchdog can never write into a
   descriptor the kernel has reused.  The worker's normal reply is sent
   after the lock is released: a client slow to read must not stall the
   watchdog. *)
let claim ?(write = ignore) inf =
  Mutex.protect inf.if_lock (fun () ->
      if inf.if_claimed then false
      else begin
        inf.if_claimed <- true;
        write ();
        true
      end)

(* One per worker domain. *)
type slot = {
  mutable s_fd : Unix.file_descr option;  (* connection being served (under st.lock) *)
  mutable s_inflight : inflight option;  (* request being handled (under st.lock) *)
}

type state = {
  engine : Engine.t;
  cfg : config;
  lock : Mutex.t;
  cond : Condition.t;  (* queue arrivals, shutdown — every waiter re-checks *)
  queue : Unix.file_descr Queue.t;
  slots : slot list;
  drain : bool Atomic.t;  (* set by signal handlers; atomic on purpose *)
  tele : Telemetry.Ctx.t;  (* the daemon's context: service counters, the workers' ambient one *)
  mutable live_workers : int;  (* workers whose loop has not returned: the drain waits on it *)
  mutable reserved : int;  (* budget slots handed out: the requests admitted *)
  mutable stop : bool;  (* no further admissions *)
  mutable closed : bool;  (* workers may exit once the queue drains *)
  access : (string * out_channel) option;
  log_lock : Mutex.t;
  access_warned : bool Atomic.t;
  metrics_lock : Mutex.t;
  metrics_warned : bool Atomic.t;
}

(* Direct-to-fd line write for the replies that cannot share a worker's
   out_channel: shed replies (no worker yet), timeout replies (another
   domain) and crash replies (the channel's state is unknown).  A
   failed write means the client is gone; it is not an error here. *)
let write_line_fd fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  try go 0 with Unix.Unix_error _ | Sys_error _ -> ()

(* A sink that stops being writable (full disk, revoked permissions)
   must never fail a request: it is reported once on stderr and
   otherwise ignored.  Later writes are still attempted — the disk may
   come back. *)
let sink_failed warned what file e =
  if not (Atomic.exchange warned true) then
    Printf.eprintf "dca serve: cannot write %s %s (%s); continuing\n%!" what file
      (Printexc.to_string e)

(* One access-log line; [rq] is [None] for a line that did not parse,
   logged under op ["invalid"]. *)
let log_request st (rq : Protocol.request option) (rp : Protocol.response) ~status =
  match st.access with
  | None -> ()
  | Some (file, oc) ->
      let op, program =
        match rq with
        | Some rq -> (Protocol.op_to_string rq.Protocol.rq_op, program_name rq.Protocol.rq_program)
        | None -> ("invalid", "")
      in
      let entry =
        Json.Obj
          [
            ("ts_ns", Json.Int (Telemetry.now_ns ()));
            ("id", Json.Int rp.Protocol.rp_id);
            ("req", Json.Int rp.Protocol.rp_req);
            ("op", Json.Str op);
            ("program", Json.Str program);
            ("status", Json.Str status);
            ("loops", Json.Int (List.length rp.Protocol.rp_loops));
            ("hits", Json.Int rp.Protocol.rp_hits);
            ("misses", Json.Int rp.Protocol.rp_misses);
            ("elapsed_ns", Json.Int rp.Protocol.rp_elapsed_ns);
          ]
      in
      Mutex.protect st.log_lock (fun () ->
          try
            output_string oc (Json.to_string entry);
            output_char oc '\n';
            flush oc
          with Sys_error _ as e -> sink_failed st.access_warned "access log" file e)

let write_metrics_file st =
  match st.cfg.sv_metrics_file with
  | None -> ()
  | Some file ->
      Mutex.protect st.metrics_lock (fun () ->
          try
            let data = Metrics.exposition (Metrics.snapshot st.tele) in
            let tmp = file ^ ".tmp" in
            let oc = open_out tmp in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc data);
            Sys.rename tmp file
          with (Sys_error _ | Unix.Unix_error _) as e ->
            sink_failed st.metrics_warned "metrics file" file e)

(* Wake the accept loop out of a blocking [accept]: connect and hang up.
   The accepted descriptor is discarded by the stopped loop.  Also the
   only thing (besides an atomic store) a signal handler does — it
   takes no lock a handler could already be holding. *)
let wake_accept st =
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect s (Unix.ADDR_UNIX st.cfg.sv_socket) with Unix.Unix_error _ -> ());
  try Unix.close s with Unix.Unix_error _ -> ()

(* Force workers blocked in [input_line] on idle persistent connections
   to see end-of-file.  Reads only — a reply in flight still goes out. *)
let shutdown_active st =
  let fds = Mutex.protect st.lock (fun () -> List.filter_map (fun slot -> slot.s_fd) st.slots) in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    fds

let enter_stop st =
  wake_accept st;
  shutdown_active st

(* Reserve one budget slot.  Refusals close the connection; exhausting
   the budget flips [stop] so the accept loop and the other workers
   wind down. *)
let admit st =
  let admitted, stopped =
    Mutex.protect st.lock (fun () ->
        if st.stop then (false, false)
        else begin
          st.reserved <- st.reserved + 1;
          match st.cfg.sv_max_requests with
          | Some n when st.reserved >= n ->
              st.stop <- true;
              (true, true)
          | _ -> (true, false)
        end)
  in
  if stopped then enter_stop st;
  admitted

(* A [shutdown] request stops admissions once it has been answered. *)
let stop_if_shutdown st (rq : Protocol.request) =
  if rq.Protocol.rq_op = Protocol.Shutdown then begin
    let stopped =
      Mutex.protect st.lock (fun () ->
          let first = not st.stop in
          st.stop <- true;
          first)
    in
    if stopped then enter_stop st
  end

let handle_request st (rq : Protocol.request) =
  let name = "serve." ^ Protocol.op_to_string rq.Protocol.rq_op in
  let traced = Telemetry.tracing () in
  if traced then Telemetry.begin_span ~cat:"serve" name;
  match Engine.handle st.engine rq with
  | rp ->
      if traced then
        Telemetry.end_span
          ~args:
            [
              ("req", string_of_int rp.Protocol.rp_req);
              ("id", string_of_int rq.Protocol.rq_id);
              ("status", Protocol.status_to_string rp.Protocol.rp_status);
            ]
          name;
      rp
  | exception e ->
      if traced then Telemetry.end_span name;
      raise e

let serve_connection st slot fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send rp =
    try
      output_string oc (Protocol.response_line rp);
      output_char oc '\n';
      flush oc
    with Sys_error _ -> ()
  in
  let continue = ref true in
  while !continue do
    match input_line ic with
    | line ->
        if String.trim line <> "" then
          if admit st then begin
            match Protocol.parse_request line with
            | Error msg ->
                let rp = Engine.reject st.engine msg in
                send rp;
                log_request st None rp ~status:(Protocol.status_to_string rp.Protocol.rp_status);
                write_metrics_file st
            | Ok rq ->
                let inf =
                  {
                    if_rq = rq;
                    if_fd = fd;
                    if_start_ns = Telemetry.now_ns ();
                    if_lock = Mutex.create ();
                    if_claimed = false;
                  }
                in
                Mutex.protect st.lock (fun () -> slot.s_inflight <- Some inf);
                (* crash site: an injected raise escapes to the worker
                   loop with the request in flight — exercising crash
                   recovery *)
                Faultpoint.hit_unit fp_worker;
                let rp = handle_request st rq in
                (* losing the claim means the watchdog's timeout error
                   already went out and the flow is shut *)
                let timed_out = not (claim inf) in
                Mutex.protect st.lock (fun () -> slot.s_inflight <- None);
                if not timed_out then send rp;
                log_request st (Some rq) rp
                  ~status:
                    (if timed_out then "timeout"
                     else Protocol.status_to_string rp.Protocol.rp_status);
                write_metrics_file st;
                stop_if_shutdown st rq;
                if timed_out then continue := false
          end
          else continue := false
    | exception End_of_file -> continue := false
    | exception Sys_error _ -> continue := false
  done

(* Crash recovery, on the worker that caught [exn] escaping a
   connection: the in-flight request, if any, gets a [busy] reply when
   the worker still owns it (nothing was cached, so a retry is safe and
   converges to a byte-identical report), keeps the budget slot it
   reserved, and is logged with status [busy]. *)
let recover st slot exn =
  Telemetry.Ctx.add st.tele c_restarts 1;
  let inflight =
    Mutex.protect st.lock (fun () ->
        let i = slot.s_inflight in
        slot.s_inflight <- None;
        i)
  in
  (match inflight with
  | Some inf ->
      let rq = inf.if_rq in
      let rp =
        Protocol.busy_response ~id:rq.Protocol.rq_id
          ("worker crashed mid-request (" ^ Printexc.to_string exn
         ^ "); nothing was cached, retrying is safe")
      in
      ignore (claim inf ~write:(fun () -> write_line_fd inf.if_fd (Protocol.response_line rp)));
      log_request st (Some rq) rp ~status:(Protocol.status_to_string rp.Protocol.rp_status);
      write_metrics_file st;
      stop_if_shutdown st rq
  | None -> ());
  Printf.eprintf "dca serve: worker crashed; respawning\n%!"

(* A worker serves queued connections until the queue is closed and
   empty.  A crash is recovered from right here, on the worker's own
   domain, and the worker takes the next connection: nothing raised
   while recovering may end the domain or skip the [live_workers]
   decrement the drain waits for. *)
let worker_loop st slot =
  let take () =
    Mutex.protect st.lock (fun () ->
        while Queue.is_empty st.queue && not st.closed do
          Condition.wait st.cond st.lock
        done;
        let item = Queue.take_opt st.queue in
        slot.s_fd <- item;
        item)
  in
  let rec serve () =
    match take () with
    | None -> ()
    | Some fd ->
        Telemetry.Ctx.add st.tele g_queue (-1);
        (try serve_connection st slot fd with exn -> ( try recover st slot exn with _ -> ()));
        Mutex.protect st.lock (fun () -> slot.s_fd <- None);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        serve ()
  in
  Fun.protect
    ~finally:(fun () -> Mutex.protect st.lock (fun () -> st.live_workers <- st.live_workers - 1))
    serve

(* The request-timeout watchdog.  It scans the in-flight requests on a
   short period; an overdue request it claims gets a structured error
   reply and its flow shut, both under the claim's lock, so the worker
   can neither reply nor close the descriptor concurrently.  The engine
   call itself is left to finish: interrupting it could only produce
   timing-dependent verdicts, which must never exist (let alone get
   cached). *)
let watchdog_loop st ~timeout_ms ~stop =
  let timeout_ns = timeout_ms * 1_000_000 in
  let interval = Float.max 0.002 (Float.min 0.05 (float_of_int timeout_ms /. 4000.)) in
  while not (Atomic.get stop) do
    Unix.sleepf interval;
    let now = Telemetry.now_ns () in
    let expired =
      Mutex.protect st.lock (fun () ->
          List.filter_map
            (fun slot ->
              match slot.s_inflight with
              | Some inf when now - inf.if_start_ns >= timeout_ns -> Some inf
              | _ -> None)
            st.slots)
    in
    List.iter
      (fun inf ->
        let write () =
          let rp =
            Protocol.error_response ~id:inf.if_rq.Protocol.rq_id
              (Printf.sprintf "request timed out after %d ms" timeout_ms)
          in
          write_line_fd inf.if_fd (Protocol.response_line rp);
          try Unix.shutdown inf.if_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
        in
        if claim inf ~write then Telemetry.Ctx.add st.tele c_timeouts 1)
      expired
  done

let run cfg =
  reclaim_stale_socket cfg.sv_socket;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind sock (Unix.ADDR_UNIX cfg.sv_socket) with
  | () -> ()
  | exception e ->
      Unix.close sock;
      raise e);
  Unix.listen sock 64;
  let engine =
    Engine.create ?cache_dir:cfg.sv_cache_dir ?cache_capacity:cfg.sv_cache_capacity
      ?jobs:cfg.sv_jobs ()
  in
  let access =
    Option.map
      (fun path -> (path, open_out_gen [ Open_append; Open_creat ] 0o644 path))
      cfg.sv_access_log
  in
  let slots = List.init (max 1 cfg.sv_workers) (fun _ -> { s_fd = None; s_inflight = None }) in
  let st =
    {
      engine;
      cfg;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      slots;
      drain = Atomic.make false;
      tele = Telemetry.current ();
      live_workers = List.length slots;
      reserved = 0;
      stop = false;
      closed = false;
      access;
      log_lock = Mutex.create ();
      access_warned = Atomic.make false;
      metrics_lock = Mutex.create ();
      metrics_warned = Atomic.make false;
    }
  in
  (* A client hanging up mid-reply must be the client's problem, not a
     daemon-killing SIGPIPE; writes report EPIPE instead, which every
     reply path already swallows. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals =
    if cfg.sv_handle_signals then begin
      (* async-safety: an atomic store plus a self-connect — never a
         lock, which a handler interrupting its own holder would
         deadlock on *)
      let on_signal _ =
        Atomic.set st.drain true;
        wake_accept st
      in
      let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
      let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
      fun () ->
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int
    end
    else fun () -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      restore_signals ();
      Sys.set_signal Sys.sigpipe old_pipe;
      Engine.close engine;
      write_metrics_file st;
      Option.iter (fun (_, oc) -> close_out_noerr oc) access;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove cfg.sv_socket with Sys_error _ -> ())
    (fun () ->
      (* Workers inherit the acceptor's telemetry context, exactly like
         pool tasks: daemon-level spans land in the daemon's context. *)
      let workers =
        List.map
          (fun slot ->
            Domain.spawn (fun () -> Telemetry.with_ctx st.tele (fun () -> worker_loop st slot)))
          slots
      in
      let watchdog_stop = Atomic.make false in
      let watchdog =
        Option.map
          (fun ms -> Domain.spawn (fun () -> watchdog_loop st ~timeout_ms:ms ~stop:watchdog_stop))
          cfg.sv_request_timeout_ms
      in
      (* The accept loop: enqueue until stopped or draining.  A stop
         flipped by a worker — or a drain flipped by a signal handler —
         wakes a blocking [accept] through [wake_accept]. *)
      let accepting = ref true in
      while !accepting do
        if Atomic.get st.drain || Mutex.protect st.lock (fun () -> st.stop) then
          accepting := false
        else
          match Unix.accept sock with
          | fd, _ ->
              if Atomic.get st.drain then (
                try Unix.close fd with Unix.Unix_error _ -> ())
              else begin
                let verdict =
                  Mutex.protect st.lock (fun () ->
                      if st.stop then `Drop
                      else if Queue.length st.queue >= max 1 cfg.sv_max_queue then `Shed
                      else begin
                        Queue.add fd st.queue;
                        Condition.broadcast st.cond;
                        `Enqueued
                      end)
                in
                match verdict with
                | `Enqueued -> Telemetry.Ctx.add st.tele g_queue 1
                | `Shed ->
                    (* refuse before reading anything: the client gets an
                       immediate busy line it can back off on *)
                    Telemetry.Ctx.add st.tele c_shed 1;
                    let rp =
                      Protocol.busy_response ~id:0
                        (Printf.sprintf "server overloaded: request queue is full (max %d)"
                           (max 1 cfg.sv_max_queue))
                    in
                    write_line_fd fd (Protocol.response_line rp);
                    (try Unix.close fd with Unix.Unix_error _ -> ())
                | `Drop -> ( try Unix.close fd with Unix.Unix_error _ -> ())
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      if Atomic.get st.drain then begin
        Printf.eprintf "dca serve: drain requested; finishing in-flight requests\n%!";
        Mutex.protect st.lock (fun () -> st.stop <- true);
        shutdown_active st
      end;
      (* Drain: workers finish in-flight connections (admission is shut),
         discard the queued rest, and exit — within the drain budget. *)
      Mutex.protect st.lock (fun () ->
          st.closed <- true;
          Condition.broadcast st.cond);
      let deadline =
        Telemetry.now_ns () + int_of_float (cfg.sv_drain_timeout_s *. 1e9)
      in
      let rec await () =
        let live = Mutex.protect st.lock (fun () -> st.live_workers) in
        if live = 0 then 0
        else if Telemetry.now_ns () >= deadline then live
        else begin
          Unix.sleepf 0.02;
          await ()
        end
      in
      let leftover = await () in
      if leftover > 0 then
        Printf.eprintf
          "dca serve: drain timeout (%.1fs) exceeded; abandoning %d in-flight worker(s)\n%!"
          cfg.sv_drain_timeout_s leftover
      else List.iter Domain.join workers;
      Atomic.set watchdog_stop true;
      Option.iter Domain.join watchdog;
      st.reserved)

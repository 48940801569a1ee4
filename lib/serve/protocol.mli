(** The JSON-lines wire protocol of [dca serve] (grammar in DESIGN.md
    §12): one request object per line in, one response object per line
    out, in order.  Unknown request fields are ignored; the [id] is
    echoed verbatim so a pipelining client can match replies. *)

type program_source =
  | Named of string  (** registry benchmark name or server-side file path *)
  | Inline of { file : string; source : string; input : int list }
      (** MiniC source shipped in the request *)

type op =
  | Analyze  (** run (or serve from cache) the DCA pipeline *)
  | Ping  (** liveness probe *)
  | Stats  (** server + cache counters *)
  | Shutdown  (** reply, then stop accepting and exit the serve loop *)

type status =
  | Ok
  | Busy
      (** overload shed: the daemon refused the request (queue beyond
          [--max-queue], or a worker crashed mid-request).  Nothing was
          analyzed or cached, so retrying after a backoff is always
          safe — {!Client.request_retry} does exactly that. *)
  | Error

val status_to_string : status -> string

val status_of_string : string -> status
(** ["ok"] and ["busy"] map to their constructors; anything else —
    including statuses a future daemon might add — degrades to
    [Error]. *)

type request = {
  rq_id : int;
  rq_op : op;
  rq_program : program_source option;  (** required for [Analyze] *)
  rq_jobs : int option;  (** session pool width (results identical for every value) *)
  rq_shuffles : int option;  (** random schedules, as [dca analyze --shuffles] *)
  rq_hierarchical : bool;
  rq_no_escalate : bool;
  rq_deadline_ms : int option;
  rq_heap_words : int option;
  rq_faults : string option;
      (** {!Dca_support.Faultpoint} plan armed for this request only *)
  rq_no_cache : bool;  (** bypass cache lookup (the result is still stored) *)
  rq_no_static : bool;
      (** disable the {!Dca_analysis.Staticproof} fast-path, as
          [dca analyze --no-static]; part of the config digest, so
          static and dynamic verdicts never share cache entries *)
}

val default_request : request
(** [Ping] with id 0 and every option unset — build requests with record
    update syntax. *)

type loop_info = {
  li_label : string;
  li_decision : string;
  li_cached : bool;
  li_provenance : Dca_core.Report.provenance;
}

type response = {
  rp_id : int;
  rp_req : int;
      (** server-assigned request id (monotonic per daemon, 0 when the
          response never went through an engine) — the same id appears
          in the access log's [req] field and as the [req] argument of
          the request's trace span, so one request can be followed
          across all three sinks *)
  rp_status : status;
  rp_error : string option;  (** reason for [Busy] and [Error] replies *)
  rp_report : string option;  (** byte-identical to [dca analyze] output *)
  rp_loops : loop_info list;
  rp_hits : int;  (** per-request verdict-cache hits *)
  rp_misses : int;
  rp_counters : (string * int) list;
      (** [Stats] replies: every counter and gauge of the daemon's
          telemetry context, sorted by name — the cells of [rp_metrics] *)
  rp_metrics : Json.t option;  (** [Stats] replies: {!Metrics.snapshot} as JSON *)
  rp_elapsed_ns : int;
}

val ok_response : id:int -> response
val error_response : id:int -> string -> response

val busy_response : id:int -> string -> response
(** An overload-shed reply; the message explains why (queue full, worker
    crash) and is carried in [rp_error]. *)

val ok : response -> bool
(** [rp_status = Ok]. *)

val op_to_string : op -> string
val op_of_string : string -> op option

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val request_line : request -> string
(** One line, no newline appended. *)

val response_line : response -> string
val parse_request : string -> (request, string) result
val parse_response : string -> (response, string) result

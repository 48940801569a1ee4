(* JSON-lines wire protocol of `dca serve` (grammar in DESIGN.md §12).

   One request object per line in, one response object per line out, in
   order.  Unknown request fields are ignored (forward compatibility);
   missing optional fields take the documented defaults.  The [id] is
   echoed verbatim so a pipelining client can match replies. *)

type program_source =
  | Named of string  (** registry benchmark name or server-side file path *)
  | Inline of { file : string; source : string; input : int list }

type op = Analyze | Ping | Stats | Shutdown

(* [Busy] is the overload-shedding reply: the daemon refused to take the
   request (queue full, worker crash mid-request) and the client should
   retry after a backoff — nothing was analyzed and nothing was cached,
   so a retry is always safe.  Parsers map unknown wire statuses to
   [Error] so an older client degrades gracefully against a newer
   daemon. *)
type status = Ok | Busy | Error

type request = {
  rq_id : int;
  rq_op : op;
  rq_program : program_source option;  (** required for [Analyze] *)
  rq_jobs : int option;
  rq_shuffles : int option;
  rq_hierarchical : bool;
  rq_no_escalate : bool;
  rq_deadline_ms : int option;
  rq_heap_words : int option;
  rq_faults : string option;  (** fault plan scoped to this request *)
  rq_no_cache : bool;  (** bypass the verdict cache (still stores) *)
  rq_no_static : bool;  (** disable the static fast-path for this request *)
}

let default_request =
  {
    rq_id = 0;
    rq_op = Ping;
    rq_program = None;
    rq_jobs = None;
    rq_shuffles = None;
    rq_hierarchical = false;
    rq_no_escalate = false;
    rq_deadline_ms = None;
    rq_heap_words = None;
    rq_faults = None;
    rq_no_cache = false;
    rq_no_static = false;
  }

type loop_info = {
  li_label : string;
  li_decision : string;
  li_cached : bool;
  li_provenance : Dca_core.Report.provenance;
}

type response = {
  rp_id : int;
  rp_req : int;  (** server-assigned request id (0 = unassigned) *)
  rp_status : status;
  rp_error : string option;
  rp_report : string option;
  rp_loops : loop_info list;
  rp_hits : int;
  rp_misses : int;
  rp_counters : (string * int) list;  (** [Stats] replies: the daemon context's counters and gauges *)
  rp_metrics : Json.t option;  (** [Stats] replies: {!Metrics.snapshot} as JSON *)
  rp_elapsed_ns : int;
}

let ok_response ~id =
  {
    rp_id = id;
    rp_req = 0;
    rp_status = Ok;
    rp_error = None;
    rp_report = None;
    rp_loops = [];
    rp_hits = 0;
    rp_misses = 0;
    rp_counters = [];
    rp_metrics = None;
    rp_elapsed_ns = 0;
  }

let error_response ~id msg = { (ok_response ~id) with rp_status = Error; rp_error = Some msg }
let busy_response ~id msg = { (ok_response ~id) with rp_status = Busy; rp_error = Some msg }
let ok r = r.rp_status = Ok

let status_to_string = function Ok -> "ok" | Busy -> "busy" | Error -> "error"
let status_of_string = function "ok" -> Ok | "busy" -> Busy | _ -> Error

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let op_to_string = function
  | Analyze -> "analyze"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "analyze" -> Some Analyze
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

let program_to_json = function
  | Named n -> Json.Str n
  | Inline { file; source; input } ->
      Json.Obj
        [
          ("file", Json.Str file);
          ("source", Json.Str source);
          ("input", Json.List (List.map (fun n -> Json.Int n) input));
        ]

(* [status]'s [Ok]/[Error] shadow [result]'s constructors from here on
   down, so the parsing code below qualifies the latter with [Stdlib]. *)
let program_of_json j =
  match j with
  | Json.Str n -> Stdlib.Ok (Named n)
  | Json.Obj _ -> (
      match Json.member "source" j with
      | Some (Json.Str source) ->
          let file =
            match Json.member "file" j with Some (Json.Str f) -> f | _ -> "<inline>"
          in
          let input =
            match Json.member "input" j with
            | Some (Json.List xs) -> List.filter_map Json.to_int_opt xs
            | _ -> []
          in
          Stdlib.Ok (Inline { file; source; input })
      | _ -> Stdlib.Error "program object needs a \"source\" string")
  | _ -> Stdlib.Error "\"program\" must be a string or an object"

let request_to_json r =
  let base = [ ("id", Json.Int r.rq_id); ("op", Json.Str (op_to_string r.rq_op)) ] in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let flag name b = if b then [ (name, Json.Bool true) ] else [] in
  Json.Obj
    (base
    @ opt "program" program_to_json r.rq_program
    @ opt "jobs" (fun n -> Json.Int n) r.rq_jobs
    @ opt "shuffles" (fun n -> Json.Int n) r.rq_shuffles
    @ flag "hierarchical" r.rq_hierarchical
    @ flag "no_escalate" r.rq_no_escalate
    @ opt "deadline_ms" (fun n -> Json.Int n) r.rq_deadline_ms
    @ opt "heap_words" (fun n -> Json.Int n) r.rq_heap_words
    @ opt "faults" (fun s -> Json.Str s) r.rq_faults
    @ flag "no_cache" r.rq_no_cache
    @ flag "no_static" r.rq_no_static)

let request_of_json j =
  let int_field name = Option.bind (Json.member name j) Json.to_int_opt in
  let bool_field name = match Json.member name j with Some (Json.Bool b) -> b | _ -> false in
  let str_field name = Option.bind (Json.member name j) Json.to_str_opt in
  match Json.member "op" j with
  | None -> Stdlib.Error "missing \"op\""
  | Some op_j -> (
      match Option.bind (Json.to_str_opt op_j) op_of_string with
      | None -> Stdlib.Error "unknown \"op\" (expected analyze|ping|stats|shutdown)"
      | Some op -> (
          let program =
            match Json.member "program" j with
            | None -> Stdlib.Ok None
            | Some pj -> Result.map Option.some (program_of_json pj)
          in
          match program with
          | Stdlib.Error e -> Stdlib.Error e
          | Stdlib.Ok rq_program ->
              if op = Analyze && rq_program = None then
                Stdlib.Error "analyze needs a \"program\""
              else
                Stdlib.Ok
                  {
                    rq_id = Option.value (int_field "id") ~default:0;
                    rq_op = op;
                    rq_program;
                    rq_jobs = int_field "jobs";
                    rq_shuffles = int_field "shuffles";
                    rq_hierarchical = bool_field "hierarchical";
                    rq_no_escalate = bool_field "no_escalate";
                    rq_deadline_ms = int_field "deadline_ms";
                    rq_heap_words = int_field "heap_words";
                    rq_faults = str_field "faults";
                    rq_no_cache = bool_field "no_cache";
                    rq_no_static = bool_field "no_static";
                  }))

let loop_info_to_json li =
  Json.Obj
    [
      ("label", Json.Str li.li_label);
      ("decision", Json.Str li.li_decision);
      ("cached", Json.Bool li.li_cached);
      ("provenance", Json.Str (Dca_core.Report.provenance_to_string li.li_provenance));
    ]

let loop_info_of_json j =
  match
    ( Option.bind (Json.member "label" j) Json.to_str_opt,
      Option.bind (Json.member "decision" j) Json.to_str_opt )
  with
  | Some label, Some decision ->
      Some
        {
          li_label = label;
          li_decision = decision;
          li_cached =
            (match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false);
          li_provenance =
            (match Json.member "provenance" j with
            | Some (Json.Str "static") -> Dca_core.Report.Static
            | _ -> Dca_core.Report.Dynamic);
        }
  | _ -> None

let response_to_json r =
  Json.Obj
    ([ ("id", Json.Int r.rp_id) ]
    @ (if r.rp_req = 0 then [] else [ ("req", Json.Int r.rp_req) ])
    @ [ ("status", Json.Str (status_to_string r.rp_status)) ]
    @ (match r.rp_error with Some e -> [ ("error", Json.Str e) ] | None -> [])
    @ (match r.rp_report with Some s -> [ ("report", Json.Str s) ] | None -> [])
    @ (match r.rp_loops with
      | [] -> []
      | loops -> [ ("loops", Json.List (List.map loop_info_to_json loops)) ])
    @ [ ("hits", Json.Int r.rp_hits); ("misses", Json.Int r.rp_misses) ]
    @ (match r.rp_counters with
      | [] -> []
      | kvs -> [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)) ])
    @ (match r.rp_metrics with Some m -> [ ("metrics", m) ] | None -> [])
    @ [ ("elapsed_ns", Json.Int r.rp_elapsed_ns) ])

let response_of_json j =
  match Option.bind (Json.member "status" j) Json.to_str_opt with
  | None -> Stdlib.Error "missing \"status\""
  | Some status ->
      let int_field name = Option.value (Option.bind (Json.member name j) Json.to_int_opt) ~default:0 in
      Stdlib.Ok
        {
          rp_id = int_field "id";
          rp_req = int_field "req";
          rp_status = status_of_string status;
          rp_error = Option.bind (Json.member "error" j) Json.to_str_opt;
          rp_report = Option.bind (Json.member "report" j) Json.to_str_opt;
          rp_loops =
            (match Json.member "loops" j with
            | Some (Json.List xs) -> List.filter_map loop_info_of_json xs
            | _ -> []);
          rp_hits = int_field "hits";
          rp_misses = int_field "misses";
          rp_counters =
            (match Json.member "counters" j with
            | Some (Json.Obj kvs) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int_opt v))
                  kvs
            | _ -> []);
          rp_metrics = Json.member "metrics" j;
          rp_elapsed_ns = int_field "elapsed_ns";
        }

let request_line r = Json.to_string (request_to_json r)
let response_line r = Json.to_string (response_to_json r)

let parse_request line =
  match Json.of_string_result line with
  | Stdlib.Error e -> Stdlib.Error ("malformed JSON: " ^ e)
  | Stdlib.Ok j -> request_of_json j

let parse_response line =
  match Json.of_string_result line with
  | Stdlib.Error e -> Stdlib.Error ("malformed JSON: " ^ e)
  | Stdlib.Ok j -> response_of_json j

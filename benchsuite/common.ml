(* Plumbing shared by the workloads: run configuration, the outcome a
   workload reports, per-layer accumulation, and child processes. *)

module Telemetry = Dca_support.Telemetry

let now_ns = Telemetry.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  dca : string;  (** path of the dca executable, for the serve workloads *)
  workdir : string;  (** relative to the checkout root: sockets, caches, traces *)
}

let deadline_ns cfg = now_ns () + (cfg.seconds * 1_000_000_000)

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first, capped *)
  values : (string, float) Hashtbl.t;
  notes : (string, string) Hashtbl.t;  (** per metric: sample count, percentile used *)
}

let outcome () =
  { attempted = 0; failed = 0; failures = []; values = Hashtbl.create 64; notes = Hashtbl.create 16 }

let attempt o = o.attempted <- o.attempted + 1

(* One failed item.  Only the first few messages are kept: a systematic
   failure repeats the same one. *)
let fail o msg =
  o.failed <- o.failed + 1;
  if List.length o.failures < 20 then o.failures <- msg :: o.failures

let set o ?note name v =
  if not (Schema.declared name) then invalid_arg ("Common.set: undeclared metric " ^ name);
  Hashtbl.replace o.values name v;
  Option.iter (Hashtbl.replace o.notes name) note

(* The layer metrics a workload does not exercise read 0. *)
let not_exercised o metrics = List.iter (fun n -> set o n 0.0) (Schema.names metrics)

(* How a workload summarises its latency tail, always with at least ten
   samples beyond the cut.  Where a fixed set of programs of far-apart
   costs lies beyond the cut, a single order statistic follows the one
   or two programs at it: those workloads report the mean of the
   latencies beyond the cut.  Where the samples beyond it are dense (the
   thousands of generated programs of fuzz), the percentile itself. *)
type tail = Mean_beyond of int | Percentile of int

(* The end-to-end latency: the workload's tail.  A tail with fewer than
   ten samples beyond its cut (a smoke run) falls back to the maximum, and
   the note says so. *)
let set_tail o ~tail ms =
  let n = List.length ms in
  let value, what =
    match tail with
    | Mean_beyond p -> (Stats.mean_beyond p ms, Printf.sprintf "mean beyond p%d" p)
    | Percentile p -> (Stats.percentile p ms, Printf.sprintf "p%d" p)
  in
  match value with
  | Some v -> set o "latency_tail_ms" v ~note:(Printf.sprintf "%s, n=%d" what n)
  | None ->
      set o "latency_tail_ms" (List.fold_left max 0.0 ms)
        ~note:(Printf.sprintf "max: too few samples for the %s, n=%d" what n)

(* A percentile for a per-layer metric: no bound rides on it, so a short
   tail falls back to the maximum instead of failing. *)
let pct_or_max p = function
  | [] -> 0.0
  | ms -> ( match Stats.percentile p ms with Some v -> v | None -> List.fold_left max 0.0 ms)

let median_or_zero = function [] -> 0.0 | l -> Stats.median l

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation                                              *)
(* ------------------------------------------------------------------ *)

(* Totals over the traced items; [finish_layers] divides them out. *)
type layers = { totals : (string, float) Hashtbl.t; mutable items : int }

let layers () = { totals = Hashtbl.create 64; items = 0 }

let add l name v =
  if not (Schema.is_layer name) then invalid_arg ("Common.add: undeclared layer metric " ^ name);
  Hashtbl.replace l.totals name (v +. Option.value (Hashtbl.find_opt l.totals name) ~default:0.0)

let total l name = Option.value (Hashtbl.find_opt l.totals name) ~default:0.0

(* Library span classes (Spans.span_class) and the layer each belongs
   to.  The serve daemon gets every layer from its trace; in process the
   benchmark times the outer stages itself and takes only the split of
   the dynamic stage from spans. *)
let span_layer = function
  | "session.ir" | "parse" | "typecheck" | "lower" -> Some "frontend.ms"
  | "session.proginfo" -> Some "analysis.ms"
  | "examine" -> Some "dca.examine.ms"
  | "staticproof" -> Some "dca.staticproof.ms"
  | "golden" -> Some "dca.golden.ms"
  | "replay" -> Some "dca.replay.ms"
  | "wp-golden" | "wp-run" -> Some "dca.wp.ms"
  | "invocation" -> Some "dca.invocation_self.ms"
  | "loop" -> Some "dca.loop_self.ms"
  | "session.dca" | "task" | "drain" -> Some "dca.session_self.ms"
  | "session.profile" -> Some "profiling.ms"
  | "session.plan" -> Some "parallel.ms"
  | "serve.analyze" -> Some "serve.engine_self.ms"
  | _ -> None

let add_spans l ~only_dca folded =
  List.iter
    (fun (cls, (t : Spans.totals)) ->
      match span_layer cls with
      | Some layer when (not only_dca) || List.mem layer Schema.dca_parts ->
          add l layer (ms_of_ns t.Spans.self_ns)
      | _ -> ())
    folded

(* Telemetry counters and the per-layer metric each feeds, per item. *)
let counter_layers =
  [
    ("dca.loops_examined", "dca.loops_examined");
    ("dca.invocations", "dca.invocations");
    ("dca.golden_runs", "dca.golden_runs");
    ("dca.replays", "dca.replays");
    ("dca.replay_steps", "dca.replay_steps");
    ("dca.wp_golden_runs", "dca.wp_runs");
    ("dca.wp_schedule_runs", "dca.wp_runs");
    ("dca.schedules_skipped", "dca.schedules_skipped");
    ("dca.loops_escalated", "dca.loops_escalated");
    ("dca.static-proved", "dca.static_proved");
    ("dca.static-bailouts", "dca.static_bailouts");
    ("interp.instructions", "interp.instructions");
    ("store.snapshots", "store.snapshots");
    ("store.restores", "store.restores");
    ("store.cells_dirtied", "store.cells_dirtied");
  ]

let add_counters l kvs =
  List.iter
    (fun (k, v) ->
      Option.iter (fun name -> add l name (float_of_int v)) (List.assoc_opt k counter_layers))
    kvs

(* Turn the totals into per-item values and derive the ratios.  [item.ms]
   must already be accumulated (the items' end-to-end times) and
   [dca.ms] either accumulated (in process: timed around dca_results) or
   left to be the sum of its parts (serve). *)
let finish_layers o l =
  let items = float_of_int (max 1 l.items) in
  let per name = total l name /. items in
  List.iter
    (fun name -> set o name (per name))
    (("item.ms" :: Schema.components) @ List.map snd counter_layers);
  let parts = List.fold_left (fun acc n -> acc +. per n) 0.0 Schema.dca_parts in
  set o "dca.ms" (if Hashtbl.mem l.totals "dca.ms" then per "dca.ms" else parts);
  let covered = List.fold_left (fun acc n -> acc +. per n) 0.0 Schema.components in
  let residual = per "item.ms" -. covered in
  set o "residual.ms" residual;
  set o "residual.share" (if per "item.ms" > 0.0 then residual /. per "item.ms" else 0.0);
  let steps = total l "dca.replay_steps" in
  set o "dca.replay_ns_per_step"
    (if steps > 0.0 then total l "dca.replay.ms" *. 1e6 /. steps else 0.0);
  let proved = total l "dca.static_proved" and bailed = total l "dca.static_bailouts" in
  set o "analysis.staticproof.proved_ratio"
    (if proved +. bailed > 0.0 then proved /. (proved +. bailed) else 0.0)

(* Tracing overhead: geometric mean over items of traced ÷ untraced time,
   as a percentage.  [pairs] holds one (untraced, traced) pair per item
   that ran both ways. *)
let set_trace_overhead o pairs =
  let ratios =
    List.filter_map (fun (u, t) -> if u > 0.0 && t > 0.0 then Some (t /. u) else None) pairs
  in
  set o "trace.overhead_pct" (match ratios with [] -> 0.0 | r -> 100.0 *. (Stats.geomean r -. 1.0))

(* One (untraced, traced) pair of medians per item that ran both ways,
   from each item's runs (start, end) at the reference pace. *)
let overhead_pairs untraced traced =
  let median spans = Stats.median (List.map Pace.scaled_ms spans) in
  Hashtbl.fold
    (fun name u acc ->
      match Hashtbl.find_opt traced name with
      | Some t -> (median u, median t) :: acc
      | None -> acc)
    untraced []

(* ------------------------------------------------------------------ *)
(* Layer probes run after the clock stops                              *)
(* ------------------------------------------------------------------ *)

(* The plain interpreter (no DCA instrumentation) and the serve cache's
   program digest, over the distinct programs a workload analysed. *)
let probe_interp_and_digest o (progs : (Dca_ir.Ir.program * int list) list) =
  let run_ns = ref 0 and steps = ref 0 and digest_ns = ref 0 in
  List.iter
    (fun (prog, input) ->
      let ctx = Dca_interp.Eval.create ~input prog in
      let t0 = now_ns () in
      (try Dca_interp.Eval.run_main ctx with Dca_interp.Eval.Trap _ -> ());
      run_ns := !run_ns + (now_ns () - t0);
      steps := !steps + Dca_interp.Eval.steps ctx;
      let t0 = now_ns () in
      ignore (Dca_serve.Progdigest.of_program prog);
      digest_ns := !digest_ns + (now_ns () - t0))
    progs;
  let n = float_of_int (max 1 (List.length progs)) in
  set o "interp.run_ms" (ms_of_ns !run_ns /. n);
  set o "interp.ns_per_instr" (if !steps > 0 then float_of_int !run_ns /. float_of_int !steps else 0.0);
  set o "progdigest.us" (float_of_int !digest_ns /. 1e3 /. n)

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of a process, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  try
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0.0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Children still running when the suite exits (a failed check raised
   past their shutdown, or a signal) are killed and reaped by
   [kill_children]. *)
let live : int list ref = ref []

let reap pid = live := List.filter (( <> ) pid) !live

let spawn prog args ~stdout ~stderr =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout stderr in
  live := pid :: !live;
  pid

(* Wait up to 30 s for [pid] to exit, then kill it. *)
let wait_or_kill pid =
  let limit = now_ns () + 30_000_000_000 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_ns () < limit ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let clean = go () in
  reap pid;
  clean

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Seeded Fisher–Yates over a list. *)
let shuffled rng l =
  let a = Array.of_list l in
  Dca_support.Prng.shuffle_in_place rng a;
  Array.to_list a

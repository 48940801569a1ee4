external now_ns : unit -> int = "dca_monotonic_now_ns" [@@noalloc]

(* ------------------------------------------------------------------ *)
(* Counter descriptors                                                 *)
(* ------------------------------------------------------------------ *)

(* A counter is a process-wide *descriptor* — name, kind, merge rule,
   shape and a dense cell index — while its cells live in contexts.
   Descriptors are registered once (module-initialization [let]s) and
   shared by every context, so two contexts always agree on what a
   counter means and a fold of one context into another is
   index-aligned.  A gauge is a counter marked as one (it may go down);
   a histogram owns a run of cells: one per bucket of a fixed latency
   ladder plus the +Inf overflow, then sum and count. *)

type kind = Work | Diag
type merge = Sum | Max
type shape = Plain | Gauge | Hist

type counter = { c_name : string; c_kind : kind; c_merge : merge; c_shape : shape; c_index : int }
type histogram = counter

(* 1ms, 2.5ms, 5ms … 10s: wide enough for a warm ping and a cold
   whole-program analysis on the same ladder. *)
let histogram_bounds_ns =
  [| 1_000_000; 2_500_000; 5_000_000; 10_000_000; 25_000_000; 50_000_000; 100_000_000;
     250_000_000; 500_000_000; 1_000_000_000; 2_500_000_000; 5_000_000_000; 10_000_000_000 |]

let n_buckets = Array.length histogram_bounds_ns + 1 (* + the +Inf overflow *)
let width c = if c.c_shape = Hist then n_buckets + 2 else 1

let registry : counter list ref = ref []  (* newest first *)
let cells_n = ref 0  (* cells handed out to descriptors so far *)
let registry_mutex = Mutex.create ()

let register ~kind ~merge ~shape name =
  Mutex.protect registry_mutex (fun () ->
      match List.find_opt (fun c -> c.c_name = name) !registry with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_kind = kind; c_merge = merge; c_shape = shape; c_index = !cells_n } in
          registry := c :: !registry;
          cells_n := !cells_n + width c;
          c)

let counter ?(kind = Work) ?(merge = Sum) ?(gauge = false) name =
  register ~kind ~merge ~shape:(if gauge then Gauge else Plain) name

let histogram name = register ~kind:Diag ~merge:Sum ~shape:Hist name

let registered () = Mutex.protect registry_mutex (fun () -> !registry)

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(* ------------------------------------------------------------------ *)

type event = {
  e_ph : char;
  e_name : string;
  e_cat : string;
  e_ts : int;
  e_tid : int;
  e_args : (string * string) list;
}

(* A context owns what used to be process-global: the collection flags,
   one cell per registered counter, and per-domain event buffers.  The
   flags are atomics because they are read from pool worker domains; the
   disabled fast path is still one load and one branch per flag, with no
   allocation.  Buffers are keyed by domain id and only ever appended to
   by that domain; sinks read them after the workers have gone quiet. *)
type ctx = {
  ctx_tracing : bool Atomic.t;
  ctx_counting : bool Atomic.t;
  ctx_mutex : Mutex.t;  (* guards cell-array growth and buffer registration *)
  mutable ctx_cells : int Atomic.t array;
  mutable ctx_buffers : (int * event list ref) list;  (* newest first *)
}

let make_ctx ~tracing ~counting =
  {
    ctx_tracing = Atomic.make tracing;
    ctx_counting = Atomic.make counting;
    ctx_mutex = Mutex.create ();
    ctx_cells = [||];
    ctx_buffers = [];
  }

let global_ctx = make_ctx ~tracing:false ~counting:false

(* The ambient context of the calling domain.  Defaults to the global
   context everywhere, so code that never mentions contexts behaves
   exactly as before the refactor. *)
let current_key = Domain.DLS.new_key (fun () -> global_ctx)
let current () = Domain.DLS.get current_key

let with_ctx c f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* Find a context's cell by index, growing the cell array on the slow
   path.  Growth copies the *same* [Atomic.t] values into the larger
   array, so increments racing with growth land in cells the new array
   still reaches — no update is lost. *)
let cell ctx i =
  let a = ctx.ctx_cells in
  if i < Array.length a then Array.unsafe_get a i
  else
    Mutex.protect ctx.ctx_mutex (fun () ->
        let a = ctx.ctx_cells in
        if i < Array.length a then a.(i)
        else begin
          let n = max (i + 1) !cells_n in
          let a' =
            Array.init n (fun i -> if i < Array.length a then a.(i) else Atomic.make 0)
          in
          ctx.ctx_cells <- a';
          a'.(i)
        end)

(* Read-only probe: never grows the array (reads allocate nothing). *)
let peek ctx i =
  let a = ctx.ctx_cells in
  if i < Array.length a then Atomic.get (Array.unsafe_get a i) else 0

let max_bump cell n =
  let rec bump () =
    let cur = Atomic.get cell in
    if n > cur && not (Atomic.compare_and_set cell cur n) then bump ()
  in
  bump ()

let ctx_counters ?kind ?gauge ctx =
  registered ()
  |> List.filter (fun c ->
         c.c_shape <> Hist
         && (match kind with None -> true | Some k -> c.c_kind = k)
         && match gauge with None -> true | Some g -> (c.c_shape = Gauge) = g)
  |> List.map (fun c -> (c.c_name, peek ctx c.c_index))
  |> List.sort compare

(* Histogram cells: [n_buckets] non-cumulative bucket counts, then the
   sum and the count.  An observation lands in the first bucket whose
   bound is >= the value; negative values clamp into the first bucket
   and add nothing to the sum. *)
let ctx_observe ctx h v =
  let rec bucket i =
    if i >= Array.length histogram_bounds_ns || v <= histogram_bounds_ns.(i) then i
    else bucket (i + 1)
  in
  ignore (Atomic.fetch_and_add (cell ctx (h.c_index + bucket 0)) 1);
  ignore (Atomic.fetch_and_add (cell ctx (h.c_index + n_buckets)) (max 0 v));
  ignore (Atomic.fetch_and_add (cell ctx (h.c_index + n_buckets + 1)) 1)

type hist_snapshot = {
  hs_bounds_ns : int array;
  hs_counts : int array;
  hs_sum_ns : int;
  hs_count : int;
}

let ctx_histograms ctx =
  registered ()
  |> List.filter (fun c -> c.c_shape = Hist)
  |> List.map (fun h ->
         ( h.c_name,
           {
             hs_bounds_ns = Array.copy histogram_bounds_ns;
             hs_counts = Array.init n_buckets (fun k -> peek ctx (h.c_index + k));
             hs_sum_ns = peek ctx (h.c_index + n_buckets);
             hs_count = peek ctx (h.c_index + n_buckets + 1);
           } ))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let ctx_reset ctx =
  Mutex.protect ctx.ctx_mutex (fun () ->
      Array.iter (fun cell -> Atomic.set cell 0) ctx.ctx_cells;
      List.iter (fun (_, b) -> b := []) ctx.ctx_buffers)

(* Fold [src]'s counters into [into]: [Sum] counters and histogram cells
   add, [Max] counters keep the larger value.  Unconditional — this is
   aggregation of already collected data, not instrumentation, so
   [into]'s counting flag is not consulted.  Events are not folded; they
   stay with the context that recorded them. *)
let ctx_merge_into ~into src =
  if into != src then
    List.iter
      (fun c ->
        for i = c.c_index to c.c_index + width c - 1 do
          let v = peek src i in
          if v <> 0 then
            match c.c_merge with
            | Sum -> ignore (Atomic.fetch_and_add (cell into i) v)
            | Max -> max_bump (cell into i) v
        done)
      (registered ())

(* ------------------------------------------------------------------ *)
(* Ambient API (what pre-context call sites keep using)                *)
(* ------------------------------------------------------------------ *)

let tracing () = Atomic.get (current ()).ctx_tracing
let counting () = Atomic.get (current ()).ctx_counting
let set_tracing b = Atomic.set (current ()).ctx_tracing b
let set_counting b = Atomic.set (current ()).ctx_counting b

type config = { cfg_trace : string option; cfg_jsonl : string option; cfg_stats : bool }

let current_config = ref { cfg_trace = None; cfg_jsonl = None; cfg_stats = false }
let explicitly_configured = ref false
let env_inited = ref false

(* Sinks and their file paths are process-level concerns; [configure]
   installs them and derives the collection flags of the *global*
   context, which is the ambient context of every front end. *)
let apply_config cfg =
  current_config := cfg;
  let tracing = cfg.cfg_trace <> None || cfg.cfg_jsonl <> None in
  Atomic.set global_ctx.ctx_tracing tracing;
  Atomic.set global_ctx.ctx_counting (tracing || cfg.cfg_stats)

let configure cfg =
  explicitly_configured := true;
  apply_config cfg

let config () = !current_config

let init_from_env () =
  if not (!explicitly_configured || !env_inited) then begin
    env_inited := true;
    let trace = Sys.getenv_opt "DCA_TRACE" in
    let stats =
      match Sys.getenv_opt "DCA_STATS" with Some "" | Some "0" | None -> false | Some _ -> true
    in
    let cfg =
      match trace with
      | Some f when f <> "" ->
          if Filename.check_suffix f ".jsonl" then
            { cfg_trace = None; cfg_jsonl = Some f; cfg_stats = stats }
          else { cfg_trace = Some f; cfg_jsonl = None; cfg_stats = stats }
      | _ -> { cfg_trace = None; cfg_jsonl = None; cfg_stats = stats }
    in
    apply_config cfg
  end

let add c n = if counting () then ignore (Atomic.fetch_and_add (cell (current ()) c.c_index) n)
let incr c = add c 1
let add_max c n = if counting () then max_bump (cell (current ()) c.c_index) n
let value c = peek (current ()) c.c_index
let counters ?kind () = ctx_counters ?kind (current ())
let reset () = ctx_reset (current ())

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

(* One buffer per (context, domain), found through a one-slot per-domain
   cache: the common case — a domain recording many events into one
   context — pays a physical-equality check, not a mutex. *)
let buffer_cache : (ctx * event list ref) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let buffer_for ctx =
  let slot = Domain.DLS.get buffer_cache in
  match !slot with
  | Some (c, b) when c == ctx -> b
  | _ ->
      let tid = (Domain.self () :> int) in
      let b =
        Mutex.protect ctx.ctx_mutex (fun () ->
            match List.assoc_opt tid ctx.ctx_buffers with
            | Some b -> b
            | None ->
                let b = ref [] in
                ctx.ctx_buffers <- (tid, b) :: ctx.ctx_buffers;
                b)
      in
      slot := Some (ctx, b);
      b

let record ph ?(args = []) ~cat name =
  let ev =
    {
      e_ph = ph;
      e_name = name;
      e_cat = cat;
      e_ts = now_ns ();
      e_tid = (Domain.self () :> int);
      e_args = args;
    }
  in
  let b = buffer_for (current ()) in
  b := ev :: !b

let begin_span ?(cat = "") name = if tracing () then record 'B' ~cat name

let end_span ?args name = if tracing () then record 'E' ?args ~cat:"" name

let span ?cat name f =
  if tracing () then begin
    begin_span ?cat name;
    Fun.protect ~finally:(fun () -> end_span name) f
  end
  else f ()

let instant ?args name = if tracing () then record 'i' ?args ~cat:"" name

let ctx_events ctx =
  Mutex.protect ctx.ctx_mutex (fun () -> List.rev ctx.ctx_buffers)
  |> List.concat_map (fun (_, b) -> List.rev !b)

let events () = ctx_events (current ())

(* ------------------------------------------------------------------ *)
(* The context handle                                                  *)
(* ------------------------------------------------------------------ *)

module Ctx = struct
  type t = ctx

  let global = global_ctx
  let create ?(tracing = false) ?(counting = false) () = make_ctx ~tracing ~counting
  let tracing c = Atomic.get c.ctx_tracing
  let counting c = Atomic.get c.ctx_counting
  let set_tracing c b = Atomic.set c.ctx_tracing b
  let set_counting c b = Atomic.set c.ctx_counting b
  let value c cnt = peek c cnt.c_index
  let add c cnt n = ignore (Atomic.fetch_and_add (cell c cnt.c_index) n)
  let observe = ctx_observe
  let counters = ctx_counters
  let histograms = ctx_histograms
  let events = ctx_events
  let reset = ctx_reset
  let merge_into = ctx_merge_into
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let stats_table () =
  let render title kind buf =
    let nonzero = List.filter (fun (_, v) -> v <> 0) (counters ~kind ()) in
    if nonzero <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%s\n" title);
      List.iter (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-36s %14d\n" n v)) nonzero
    end
  in
  let buf = Buffer.create 512 in
  render "-- work counters (deterministic across jobs and checkpoint modes) --" Work buf;
  render "-- diagnostic counters (machine- and schedule-dependent) --" Diag buf;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no counters recorded)\n";
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let args_json args =
  if args = [] then ""
  else
    Printf.sprintf ",\"args\":{%s}"
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args))

let with_out file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let write_chrome_trace file =
  let evs = events () in
  let t0 = List.fold_left (fun acc e -> min acc e.e_ts) max_int evs in
  with_out file (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",";
          (* microsecond timestamps, rebased to the first event *)
          Printf.fprintf oc "\n{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\"%s%s}"
            e.e_ph e.e_tid
            (float_of_int (e.e_ts - t0) /. 1000.0)
            (json_escape e.e_name)
            (if e.e_cat = "" then "" else Printf.sprintf ",\"cat\":\"%s\"" (json_escape e.e_cat))
            (args_json e.e_args))
        evs;
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")

let write_jsonl file =
  with_out file (fun oc ->
      List.iter
        (fun e ->
          Printf.fprintf oc "{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%d,\"name\":\"%s\"%s%s}\n"
            e.e_ph e.e_tid e.e_ts (json_escape e.e_name)
            (if e.e_cat = "" then "" else Printf.sprintf ",\"cat\":\"%s\"" (json_escape e.e_cat))
            (args_json e.e_args))
        (events ()))

let flush () =
  let cfg = !current_config in
  (match cfg.cfg_trace with Some f -> write_chrome_trace f | None -> ());
  (match cfg.cfg_jsonl with Some f -> write_jsonl f | None -> ());
  if cfg.cfg_stats then prerr_string (stats_table ())

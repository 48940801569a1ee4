(* Reference implementation of Dca_core.Commutativity kept for
   differential testing: the dynamic stage as it was when every tested
   loop ran the whole program once by itself ([test_loop]) and every
   escalated loop ran it once more, plainly, for the golden outputs.
   test_shared_run checks that the shared run of
   [Commutativity.test_loops] reaches exactly this module's outcomes.
   Apart from this comment and the [open Dca_core] below, the file is
   the engine's source verbatim. *)

open Dca_core
open Dca_support
open Dca_analysis
open Dca_ir
open Dca_interp
open Iterator_rec

type config = {
  cc_schedules : Schedule.t list;
  cc_eps : float;
  cc_escalate : bool;
  cc_max_invocations : int;
  cc_promote_rounds : int;
}

let default_config =
  {
    cc_schedules = Schedule.presets ();
    cc_eps = 1e-6;
    cc_escalate = true;
    cc_max_invocations = 4;
    cc_promote_rounds = 3;
  }

type verdict = Commutative | Non_commutative of string | Untestable of string

let verdict_to_string = function
  | Commutative -> "commutative"
  | Non_commutative why -> "non-commutative (" ^ why ^ ")"
  | Untestable why -> "untestable (" ^ why ^ ")"

type outcome = {
  oc_verdict : verdict;
  oc_invocations : int;
  oc_escalated : bool;
  oc_promotions : int;
  oc_skipped_schedules : int;
      (** schedule replays skipped because the induced permutation was the
          identity (trip count <= 1) or duplicated an earlier schedule's *)
  oc_golden_runs : int;
  oc_replays : int;
  oc_replay_steps : int;
  oc_separation : Iterator_rec.separation;
  oc_per_invocation : verdict list;
}

type run_spec = {
  rs_input : int list;
  rs_fuel : int;
  rs_deadline_ns : int option;
  rs_heap_words : int option;
  rs_checkpoint : Store.checkpoint_mode;
}

(* The single fuel default shared by every entry point (Session used to
   carry its own 200M while the bare dynamic stage defaulted to 100M —
   fuel-sensitive programs got different verdicts depending on the door
   they came in through). *)
let default_fuel = 200_000_000

(* DCA_CHECKPOINT=deep selects the deep-copy oracle store; it is read
   here, where a spec is made, not per store. *)
let make_run_spec ?(fuel = default_fuel) ?deadline_ns ?heap_words ?checkpoint input =
  let checkpoint =
    match (checkpoint, Sys.getenv_opt "DCA_CHECKPOINT") with
    | Some m, _ -> m
    | None, Some "deep" -> Store.Deep
    | None, _ -> Store.Journal
  in
  { rs_input = input; rs_fuel = fuel; rs_deadline_ns = deadline_ns; rs_heap_words = heap_words;
    rs_checkpoint = checkpoint }

let default_run_spec = make_run_spec []

(* Every evaluator of a dynamic-stage run is created here so the resource
   guards apply uniformly; forks inherit the absolute deadline, so one
   invocation's golden run and all its replays share a single budget. *)
let context_of_spec spec prog =
  Eval.create ~fuel:spec.rs_fuel ?deadline_ns:spec.rs_deadline_ns ?heap_words:spec.rs_heap_words
    ~checkpoint:spec.rs_checkpoint ~input:spec.rs_input prog

exception Replay_mismatch of string

(* Work counters: jobs-invariant by construction.  Every increment happens
   either on the main evaluation path (identical across worker counts) or
   from totals accumulated at the deterministic merge that consumes
   speculative per-schedule results in schedule order — work a parallel
   run performed but then discarded (schedules past a trap) is never
   counted.  [interp.instructions] is the exception: it is a diagnostic,
   because workers burn instructions on exactly that discarded work. *)
let c_invocations = Telemetry.counter "dca.invocations"
let c_golden_runs = Telemetry.counter "dca.golden_runs"
let c_replays = Telemetry.counter "dca.replays"
let c_replay_steps = Telemetry.counter "dca.replay_steps"
let c_skipped = Telemetry.counter "dca.schedules_skipped"
let c_promotions = Telemetry.counter "dca.promotions"
let c_escalated = Telemetry.counter "dca.loops_escalated"
let c_wp_golden_runs = Telemetry.counter "dca.wp_golden_runs"
let c_wp_schedule_runs = Telemetry.counter "dca.wp_schedule_runs"
let d_instructions = Telemetry.counter ~kind:Telemetry.Diag "interp.instructions"

(* Fault points of the dynamic stage.  [trap]/[fuel] actions map onto the
   evaluator's own exceptions, so an injected fault exercises exactly the
   degradation path a guest-program fault would: a trap under a permuted
   replay is non-commutativity evidence, a golden-run trap makes the loop
   untestable. *)
let fp_golden = Faultpoint.site "commutativity.golden"
let fp_replay = Faultpoint.site "commutativity.replay"

let fault_hit ?ctx site name =
  match Faultpoint.hit ?ctx site with
  | Faultpoint.Pass -> ()
  | Faultpoint.Fire_trap -> raise (Eval.Trap (Faultpoint.injected_msg ?ctx name))
  | Faultpoint.Fire_fuel -> raise Eval.Out_of_fuel

(* ------------------------------------------------------------------ *)
(* Golden recording                                                    *)
(* ------------------------------------------------------------------ *)

(* Memory footprint of the golden run, split by slice/payload attribution. *)
type footprint = {
  mutable fp_slice_reads : (Events.loc, unit) Hashtbl.t;
  mutable fp_slice_writes : (Events.loc, unit) Hashtbl.t;
  fp_payload_reads : (Events.loc, Intset.t ref) Hashtbl.t;  (** loc → payload iids *)
  fp_payload_writes : (Events.loc, Intset.t ref) Hashtbl.t;
}

type golden = {
  g_transitions : (int * int) array;  (** frame-level control transfers; (-1, header) marks iteration start *)
  g_segments : (int * int) list;  (** (start, stop) index ranges into g_transitions, one per header arrival *)
  g_payload_segments : int list;  (** indices into g_segments that execute payload *)
  g_snaps : Value.t array array;  (** interface values at each header arrival *)
  g_exit_snap : Value.t array;
  g_exit_block : int;
  g_digest : Observable.t;
  g_footprint : footprint;
}

let iface_values frame sep =
  Array.of_list (List.map (fun iv -> frame.Eval.regs.(iv.if_var.Ir.vslot)) sep.sep_interface)

let is_mem_loc = function
  | Events.Lheap _ | Events.Lglob _ | Events.Lrng -> true
  | Events.Lreg _ -> false

(* The live-out interface of [loop] in the current machine state: scalar
   values in fixed order plus the global aggregate roots.  Feeds both
   digest construction (golden run) and the in-place comparison every
   replay performs against the golden digest. *)
let digest_liveout fi loop ctx frame =
  let live = Liveness.loop_live_out (Proginfo.live fi) loop in
  let scalar_values =
    Intset.elements live
    |> List.filter_map (fun vid ->
           match Liveness.var_of_id (Proginfo.live fi) vid with
           | Some v when not v.Ir.vglobal -> Some frame.Eval.regs.(v.Ir.vslot)
           | _ -> None)
  in
  (* Heap the caller can still reach through a pointer the loop did NOT
     define — a local array, a list head — is observable after the loop
     even though no loop-defined scalar carries it, so those pointers must
     root the digest walk too.  Loop-defined pointers are already in
     [scalar_values] (capture dereferences every pointer cell). *)
  let exit_ptr_roots =
    Intset.elements (Intset.diff (Liveness.loop_live_exit (Proginfo.live fi) loop) live)
    |> List.filter_map (fun vid ->
           match Liveness.var_of_id (Proginfo.live fi) vid with
           | Some v when not v.Ir.vglobal -> (
               match frame.Eval.regs.(v.Ir.vslot) with
               | Value.VPtr _ as p -> Some p
               | _ -> None)
           | _ -> None)
  in
  let gvals = Eval.globals_of ctx in
  let gscalars = List.filter_map (fun (g, v) -> if g.Ir.g_aggregate then None else Some v) gvals in
  let groots = List.filter_map (fun (g, v) -> if g.Ir.g_aggregate then Some v else None) gvals in
  (scalar_values @ gscalars, exit_ptr_roots @ groots)

let capture_digest fi loop ctx frame =
  let scalars, roots = digest_liveout fi loop ctx frame in
  Observable.capture (Eval.store ctx) ~scalars ~roots

let matches_digest ~eps golden fi loop ctx frame =
  let scalars, roots = digest_liveout fi loop ctx frame in
  Observable.matches ~eps golden (Eval.store ctx) ~scalars ~roots

(* Run the loop once in original order under a recording sink. *)
let record_golden ctx frame fi sep =
  fault_hit fp_golden "commutativity.golden";
  let loop = sep.sep_loop in
  let header = loop.Loops.l_header in
  let in_loop b = Intset.mem b loop.Loops.l_blocks in
  let transitions = ref [] in
  let depth = ref 0 in
  let cur_iid = ref (-1) in
  let fp =
    {
      fp_slice_reads = Hashtbl.create 64;
      fp_slice_writes = Hashtbl.create 64;
      fp_payload_reads = Hashtbl.create 64;
      fp_payload_writes = Hashtbl.create 64;
    }
  in
  let in_slice iid = Intset.mem iid sep.sep_slice in
  let in_payload iid = Intset.mem iid sep.sep_payload in
  let touch tbl loc =
    if not (Hashtbl.mem tbl loc) then Hashtbl.replace tbl loc ()
  in
  let touch_set tbl loc iid =
    match Hashtbl.find_opt tbl loc with
    | Some s -> s := Intset.add iid !s
    | None -> Hashtbl.replace tbl loc (ref (Intset.singleton iid))
  in
  let record_access is_read loc =
    if is_mem_loc loc && !cur_iid >= 0 then begin
      let iid = !cur_iid in
      if in_slice iid then touch (if is_read then fp.fp_slice_reads else fp.fp_slice_writes) loc
      else if in_payload iid then
        touch_set (if is_read then fp.fp_payload_reads else fp.fp_payload_writes) loc iid
    end
  in
  let sink =
    {
      Events.on_exec = (fun i -> if !depth = 0 then cur_iid := i.Ir.iid);
      on_read = (fun loc _ -> record_access true loc);
      on_write = (fun loc _ -> record_access false loc);
      on_block =
        (fun ~fname:_ ~src ~dst -> if !depth = 0 then transitions := (src, dst) :: !transitions);
      on_call = (fun _ -> incr depth);
      on_return = (fun _ -> decr depth);
    }
  in
  let run () =
    (* the sink records a (-1, header) marker at the start of every
       per-iteration [exec_upto], which delimits the segments *)
    let snaps = ref [ iface_values frame sep ] in
    let rec go cur =
      match
        Eval.exec_upto ctx frame ~start:cur ~stop:(fun b -> b = header || not (in_loop b)) ~control:None
      with
      | Eval.Stopped_at b when b = header ->
          snaps := iface_values frame sep :: !snaps;
          go header
      | Eval.Stopped_at e -> e
      | Eval.Returned _ -> raise (Replay_mismatch "function returned from inside the loop")
    in
    let exit_block = go header in
    (exit_block, List.rev !snaps)
  in
  (* no other sink can be active here: DCA testing runs own its own
     evaluator contexts, never under the profiler *)
  Eval.set_sink ctx (Some sink);
  let result = Fun.protect ~finally:(fun () -> Eval.set_sink ctx None) (fun () -> run ()) in
  let exit_block, snaps = result in
  let exit_snap = iface_values frame sep in
  let digest = capture_digest fi loop ctx frame in
  let trans = Array.of_list (List.rev !transitions) in
  (* segments: ranges between (-1, header) markers *)
  let segments = ref [] and seg_start = ref None in
  Array.iteri
    (fun idx (src, _dst) ->
      if src = -1 then begin
        (match !seg_start with Some s -> segments := (s, idx) :: !segments | None -> ());
        seg_start := Some (idx + 1)
      end)
    trans;
  (match !seg_start with Some s -> segments := (s, Array.length trans) :: !segments | None -> ());
  let segments = List.rev !segments in
  (* a segment that enters the loop body (some transition to an in-loop
     block other than the header) is a real iteration; the final segment of
     a header-exiting loop transfers straight out and is excluded *)
  let seg_has_body (s, e) =
    let rec has k =
      k < e && ((let _, dst = trans.(k) in in_loop dst && dst <> header) || has (k + 1))
    in
    has s
  in
  let payload_idx =
    List.mapi (fun i seg -> (i, seg)) segments
    |> List.filter_map (fun (i, seg) -> if seg_has_body seg then Some i else None)
  in
  {
    g_transitions = trans;
    g_segments = segments;
    g_payload_segments = payload_idx;
    g_snaps = Array.of_list snaps;
    g_exit_snap = exit_snap;
    g_exit_block = exit_block;
    g_digest = digest;
    g_footprint = fp;
  }

(* Payload instructions whose memory effects interfere with the iterator:
   writers of locations the slice reads or writes, and readers of locations
   the slice writes. *)
let separability_violations g =
  let fp = g.g_footprint in
  let acc = ref Intset.empty in
  Hashtbl.iter
    (fun loc iids ->
      if Hashtbl.mem fp.fp_slice_reads loc || Hashtbl.mem fp.fp_slice_writes loc then
        acc := Intset.union !acc !iids)
    fp.fp_payload_writes;
  Hashtbl.iter
    (fun loc iids ->
      if Hashtbl.mem fp.fp_slice_writes loc then acc := Intset.union !acc !iids)
    fp.fp_payload_reads;
  !acc

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Advance [cursor] (an index ref into [trans] within [stop]) to the next
   entry whose source is [bid]; return its destination. *)
let consume_direction trans cursor stop bid =
  let rec scan k =
    if k >= stop then
      raise (Replay_mismatch (Printf.sprintf "no recorded direction for block %d" bid))
    else
      let src, dst = trans.(k) in
      if src = bid then begin
        cursor := k + 1;
        dst
      end
      else scan (k + 1)
  in
  scan !cursor

(* Re-execute the loop from the entry state under [sched]:
   iterator pass (slice only, recorded path), then payload pass (payload
   only, scheduled iteration order), then restore the iterator's exit
   values so live-outs reflect the completed traversal. *)
let replay ctx frame fi sep g sched =
  let loop = sep.sep_loop in
  let header = loop.Loops.l_header in
  let in_loop b = Intset.mem b loop.Loops.l_blocks in
  let trans = g.g_transitions in
  let n_trans = Array.length trans in
  (* --- iterator pass --- *)
  let cursor = ref 0 in
  let iter_control =
    {
      Eval.sc_filter = (fun i -> Intset.mem i.Ir.iid sep.sep_slice);
      sc_override = (fun bid -> Some (consume_direction trans cursor n_trans bid));
    }
  in
  (match
     Eval.exec_upto ctx frame ~start:header ~stop:(fun b -> not (in_loop b)) ~control:(Some iter_control)
   with
  | Eval.Stopped_at e when e = g.g_exit_block -> ()
  | Eval.Stopped_at e ->
      raise (Replay_mismatch (Printf.sprintf "iterator pass exited at %d, golden exited at %d" e g.g_exit_block))
  | Eval.Returned _ -> raise (Replay_mismatch "iterator pass returned"));
  (* save iterator exit values *)
  let slice_vars =
    Intset.fold
      (fun iid acc ->
        match Ir.def_of (Pdg.instr (Proginfo.pdg fi) iid).Ir.idesc with
        | Some v when not v.Ir.vglobal -> if List.exists (fun v' -> v'.Ir.vid = v.Ir.vid) acc then acc else v :: acc
        | _ -> acc)
      sep.sep_slice []
  in
  let slice_exit_values = List.map (fun v -> (v, frame.Eval.regs.(v.Ir.vslot))) slice_vars in
  (* --- payload pass --- *)
  let seg_array = Array.of_list g.g_segments in
  let payload_iters = Array.of_list g.g_payload_segments in
  let n = Array.length payload_iters in
  let perm = Schedule.apply sched n in
  let set_iface seg_idx =
    List.iteri
      (fun j iv ->
        let value =
          match iv.if_phase with
          | Pre -> g.g_snaps.(seg_idx).(j)
          | Post ->
              if seg_idx + 1 < Array.length g.g_snaps then g.g_snaps.(seg_idx + 1).(j)
              else g.g_exit_snap.(j)
        in
        frame.Eval.regs.(iv.if_var.Ir.vslot) <- value)
      sep.sep_interface
  in
  Array.iter
    (fun k ->
      let seg_idx = payload_iters.(k) in
      let seg_start, seg_stop = seg_array.(seg_idx) in
      set_iface seg_idx;
      let cursor = ref seg_start in
      let control =
        {
          Eval.sc_filter = (fun i -> Intset.mem i.Ir.iid sep.sep_payload);
          sc_override =
            (fun bid ->
              if Intset.mem bid sep.sep_slice_cbr_blocks then
                Some (consume_direction trans cursor seg_stop bid)
              else None);
        }
      in
      match
        Eval.exec_upto ctx frame ~start:header
          ~stop:(fun b -> b = header || not (in_loop b))
          ~control:(Some control)
      with
      | Eval.Stopped_at _ -> ()
      | Eval.Returned _ -> raise (Replay_mismatch "payload pass returned"))
    perm;
  (* restore iterator exit values clobbered by interface presets *)
  List.iter (fun (v, value) -> frame.Eval.regs.(v.Ir.vslot) <- value) slice_exit_values

(* Replay under [sched], then compare the state left behind against the
   golden digest in place (no second capture is materialized). *)
let replay_matches ~eps ctx frame fi sep g sched =
  replay ctx frame fi sep g sched;
  matches_digest ~eps g.g_digest fi sep.sep_loop ctx frame

(* ------------------------------------------------------------------ *)
(* Mode A: loop-local testing via interception                         *)
(* ------------------------------------------------------------------ *)

type tester_state = {
  mutable ts_sep : separation;
  mutable ts_tested : int;
  mutable ts_failure : verdict option;
  mutable ts_needs_escalation : Schedule.t list;
  mutable ts_promotions : int;
  mutable ts_skipped : int;
  mutable ts_goldens : int;  (** loop-local golden recordings *)
  mutable ts_replays : int;  (** counted replays, identity self-checks included *)
  mutable ts_replay_steps : int;  (** instructions those replays executed *)
  mutable ts_per_invocation : verdict list;  (** reversed *)
}

let run_loop_plain ctx frame loop =
  let in_loop b = Intset.mem b loop.Loops.l_blocks in
  match
    Eval.exec_upto ctx frame ~start:loop.Loops.l_header ~stop:(fun b -> not (in_loop b)) ~control:None
  with
  | Eval.Stopped_at e -> e
  | Eval.Returned _ ->
      (* candidates exclude in-loop returns, but stay safe *)
      raise (Replay_mismatch "loop returned during plain run")

let widen_or_fail fi state violations =
  let sep' = Iterator_rec.widen fi state.ts_sep ~promote:violations in
  if sep'.sep_mixed_cbr then Error "promotion produced mixed branch conditions"
  else if sep'.sep_ambiguous <> [] then Error "promotion produced an ambiguous interface"
  else if Iterator_rec.is_iterator_only sep' then Error "iterator absorbed the whole payload"
  else begin
    state.ts_sep <- sep';
    state.ts_promotions <- state.ts_promotions + 1;
    Ok ()
  end

(* Sift out the schedules whose replay is redundant, keeping one
   representative per distinct permutation.  At trip count n <= 1 every
   preset induces the identity permutation, and distinct presets can
   collide on small n (reverse = rotate-half at n = 2, seeded shuffles can
   agree).  Replaying the identity permutation re-runs the self-check that
   already passed, and replaying a duplicate permutation re-derives the
   identical digest from the identical entry state — so neither can change
   the decision.  Returns the representatives (in preset order, paired
   with their permutation) and the number of sifted-out schedules.
   The sifting itself lives in {!Schedule.sift} so the property tests
   (and the fuzzer) can exercise it directly. *)
let sift_schedules schedules n_iters = Schedule.sift schedules n_iters

(* One counted replay: run [sched] on [ctx]/[frame], classify the result,
   and measure the instructions it executed.  Both the sequential path
   (main context) and parallel workers (forked replicas) go through here,
   so the two paths meter identical work per schedule.  [Eval.Out_of_fuel]
   escapes — workers catch it, the main context lets it abort the
   analysis — and the trace span is closed on every exit path. *)
let replay_counted ~eps ctx frame fi sep g sched =
  let traced = Telemetry.tracing () in
  let name = if traced then "replay " ^ Schedule.to_string sched else "" in
  let s0 = Eval.steps ctx in
  let label = ref "out-of-fuel" in
  if traced then Telemetry.begin_span ~cat:"dynamic" name;
  Fun.protect
    ~finally:(fun () ->
      if traced then
        Telemetry.end_span
          ~args:[ ("outcome", !label); ("instructions", string_of_int (Eval.steps ctx - s0)) ]
          name)
    (fun () ->
      let d =
        match
          fault_hit ~ctx:(Schedule.to_string sched) fp_replay "commutativity.replay";
          replay_matches ~eps ctx frame fi sep g sched
        with
        | true ->
            label := "match";
            `Ok
        | false ->
            label := "digest-mismatch";
            `Escalate
        | exception Replay_mismatch _ ->
            (* control divergence prevents loop-local digesting;
               decide via whole-program verification *)
            label := "control-divergence";
            `Escalate
        | exception Eval.Trap msg ->
            label := "trap";
            `Trap msg
      in
      (d, Eval.steps ctx - s0))

(* Run the post-identity permutation schedules.  With a pool of width > 1
   every representative replays on a {!Eval.fork}ed replica of the entry
   state in parallel; the outcomes are then folded in schedule order,
   reproducing the sequential control flow exactly: escalation marks
   accumulate in schedule order and a trap verdict cuts off the marks of
   every later schedule, so [jobs = n] and [jobs = 1] reach bit-identical
   verdicts.  A skipped duplicate inherits its representative's loop-local
   decision (a whole-program verification applies the schedule at *every*
   invocation of the loop, where two presets equal at this trip count need
   not coincide), so escalation marks are rebuilt over the full preset
   list — verdicts are identical to replaying everything. *)
let run_schedules pool config fi state ctx frame g restore0 =
  let n_iters = List.length g.g_payload_segments in
  let identity = Array.init n_iters (fun i -> i) in
  let schedules, skipped = sift_schedules config.cc_schedules n_iters in
  state.ts_skipped <- state.ts_skipped + skipped;
  (* per-representative loop-local decision, in representative order *)
  let decide_sequential () =
    let rec run acc = function
      | [] -> List.rev acc
      | (sched, _) :: rest -> begin
          restore0 ();
          match replay_counted ~eps:config.cc_eps ctx frame fi state.ts_sep g sched with
          | ((`Trap _, _) as d) -> List.rev (d :: acc)
          | d -> run (d :: acc) rest
        end
    in
    run [] schedules
  in
  let decide_parallel p =
    restore0 ();
    let base_steps = Eval.steps ctx in
    (* every replica forks from the restored entry state; the parent only
       participates in the pool while the map is in flight, so the shared
       store is read-only for its duration *)
    let outcomes =
      Pool.map p
        (fun (sched, _) ->
          let ctx' = Eval.fork ctx in
          let frame' = Eval.copy_frame frame in
          (* the digest comparison runs in the worker, against the
             worker-local replica state; only the decision crosses back *)
          let r =
            match replay_counted ~eps:config.cc_eps ctx' frame' fi state.ts_sep g sched with
            | d -> `Done d
            | exception Eval.Out_of_fuel -> `Fuel
          in
          (* replica-side diagnostics: the fork's checkpoint traffic and
             the instructions it executed, speculative work included *)
          Store.flush_telemetry (Eval.store ctx');
          Telemetry.add d_instructions (Eval.steps ctx' - base_steps);
          r)
        schedules
    in
    (* fold speculative outcomes in schedule order: decisions after a trap
       are discarded, exactly as the sequential loop never reaches them *)
    let rec fold acc = function
      | [] -> List.rev acc
      | `Done ((`Trap _, _) as d) :: _ -> List.rev (d :: acc)
      | `Done d :: rest -> fold (d :: acc) rest
      | `Fuel :: _ -> raise Eval.Out_of_fuel
    in
    fold [] outcomes
  in
  let decisions =
    match pool with
    | Some p when Pool.jobs p > 1 && List.length schedules > 1 -> decide_parallel p
    | _ -> decide_sequential ()
  in
  (* meter only the consumed decisions, and only once the list completed
     normally: schedules past a trap are never counted (the sequential
     loop never ran them), and an [Out_of_fuel] abort leaves the totals
     untouched in both paths *)
  state.ts_replays <- state.ts_replays + List.length decisions;
  state.ts_replay_steps <-
    List.fold_left (fun acc (_, steps) -> acc + steps) state.ts_replay_steps decisions;
  (* rebuild escalation marks over the full preset list in preset order —
     the exact pushes the undeduplicated sequential loop performed: every
     schedule (representative or duplicate) whose permutation escalated is
     marked, and a trap cuts off the marks of every later preset *)
  let decision_of perm =
    let rec find kept decisions =
      match (kept, decisions) with
      | (_, p) :: _, (d, _) :: _ when p = perm -> Some d
      | _ :: kept', _ :: decisions' -> find kept' decisions'
      | _, _ -> None  (* representative unreached: a trap cut it off *)
    in
    find schedules decisions
  in
  let verdict = ref Commutative in
  (try
     List.iter
       (fun sched ->
         let perm = Schedule.apply sched n_iters in
         if perm <> identity then
           match decision_of perm with
           | Some `Ok -> ()
           | Some `Escalate -> state.ts_needs_escalation <- sched :: state.ts_needs_escalation
           | Some (`Trap msg) ->
               verdict :=
                 Non_commutative (Printf.sprintf "trap under %s: %s" (Schedule.to_string sched) msg);
               raise Exit
           | None -> raise Exit)
       config.cc_schedules
   with Exit -> ());
  !verdict

let test_invocation ?pool config fi state ctx frame =
  Telemetry.span ~cat:"dynamic" "invocation" @@ fun () ->
  let st = Eval.store ctx in
  let s0 = Store.snapshot st in
  let regs0 = Array.copy frame.Eval.regs in
  let restore0 () =
    Store.restore st s0;
    Array.blit regs0 0 frame.Eval.regs 0 (Array.length regs0)
  in
  let rec attempt rounds =
    restore0 ();
    state.ts_goldens <- state.ts_goldens + 1;
    match Telemetry.span ~cat:"dynamic" "golden" (fun () -> record_golden ctx frame fi state.ts_sep) with
    | exception Replay_mismatch msg -> Untestable msg
    | exception Eval.Trap msg -> Untestable ("trap during golden run: " ^ msg)
    | g -> begin
        let violations = separability_violations g in
        if not (Intset.is_empty violations) then begin
          if rounds > 0 then
            match widen_or_fail fi state violations with
            | Ok () -> attempt (rounds - 1)
            | Error msg -> Untestable msg
          else Untestable "memory separability violated"
        end
        else begin
          (* identity self-check — metered like any other replay; it runs
             on the main context in both the sequential and parallel paths *)
          restore0 ();
          let steps0 = Eval.steps ctx in
          let count () =
            state.ts_replays <- state.ts_replays + 1;
            state.ts_replay_steps <- state.ts_replay_steps + (Eval.steps ctx - steps0)
          in
          match
            Telemetry.span ~cat:"dynamic" "replay identity" (fun () ->
                replay_matches ~eps:config.cc_eps ctx frame fi state.ts_sep g Schedule.Identity)
          with
          | exception Replay_mismatch msg ->
              count ();
              Untestable ("identity replay: " ^ msg)
          | exception Eval.Trap msg ->
              count ();
              Untestable ("identity replay trap: " ^ msg)
          | false ->
              count ();
              Untestable "identity replay does not reproduce the golden state"
          | true ->
              count ();
              run_schedules pool config fi state ctx frame g restore0
        end
      end
  in
  Fun.protect
    ~finally:(fun () -> Store.release st s0)
    (fun () ->
      let verdict = attempt config.cc_promote_rounds in
      (* leave the program in its untested, original-order state *)
      restore0 ();
      verdict)

(* ------------------------------------------------------------------ *)
(* Mode B: whole-program verification                                  *)
(* ------------------------------------------------------------------ *)

(* Run the entire program with every invocation of the loop executed under
   [sched]; return its outputs. *)
let whole_program_run (info : Proginfo.t) spec fi sep sched =
  let prog = Proginfo.program info in
  let ctx = context_of_spec spec prog in
  let loop = sep.sep_loop in
  let handler ctx frame =
    let st = Eval.store ctx in
    let s0 = Store.snapshot st in
    let regs0 = Array.copy frame.Eval.regs in
    let restore0 () =
      Store.restore st s0;
      Array.blit regs0 0 frame.Eval.regs 0 (Array.length regs0)
    in
    Fun.protect
      ~finally:(fun () -> Store.release st s0)
      (fun () ->
        let g = record_golden ctx frame fi sep in
        if not (Intset.is_empty (separability_violations g)) then
          raise (Replay_mismatch "separability violated in whole-program run");
        restore0 ();
        replay ctx frame fi sep g sched;
        (* continue the program from the permuted state *)
        g.g_exit_block)
  in
  Eval.add_interceptor ctx ~fname:loop.Loops.l_func ~header:loop.Loops.l_header handler;
  Fun.protect
    ~finally:(fun () ->
      Store.flush_telemetry (Eval.store ctx);
      Telemetry.add d_instructions (Eval.steps ctx))
    (fun () ->
      Eval.run_main ctx;
      Eval.outputs ctx)

(* Whole-program verification is one plain golden run plus one permuted
   run per schedule — every run builds its own evaluator from scratch, so
   with a pool they all execute concurrently.  The merge walks schedules
   in their (deduplicated) order and applies the sequential decision rule,
   so the verdict is identical to the sequential short-circuiting loop —
   the parallel path merely runs schedules speculatively. *)
let escalate ?pool config info spec fi sep scheds =
  let scheds = Listx.dedup_keep_order ( = ) scheds in
  (* the golden reference runs exactly once per escalated loop, in both
     the sequential and the pool-mapped paths *)
  Telemetry.incr c_wp_golden_runs;
  let golden_run () =
    Telemetry.span ~cat:"dynamic" "wp-golden" (fun () ->
        let plain_ctx = context_of_spec spec (Proginfo.program info) in
        Fun.protect
          ~finally:(fun () ->
            Store.flush_telemetry (Eval.store plain_ctx);
            Telemetry.add d_instructions (Eval.steps plain_ctx))
          (fun () ->
            Eval.run_main plain_ctx;
            Eval.outputs plain_ctx))
  in
  let sched_run sched =
    let name = if Telemetry.tracing () then "wp-run " ^ Schedule.to_string sched else "" in
    Telemetry.span ~cat:"dynamic" name (fun () ->
        match whole_program_run info spec fi sep sched with
        | out -> `Out out
        | exception Replay_mismatch msg -> `Verdict (Untestable ("whole-program replay: " ^ msg))
        | exception Eval.Trap msg ->
            `Verdict
              (Non_commutative
                 (Printf.sprintf "whole-program trap under %s: %s" (Schedule.to_string sched) msg))
        | exception Eval.Out_of_fuel -> `Verdict (Untestable "whole-program replay ran out of fuel")
        | exception e -> `Raised (e, Printexc.get_raw_backtrace ()))
  in
  (* Decide in schedule order.  The (sched, result) pairs arrive as a
     sequence: lazy in the sequential path (so a decisive early schedule
     short-circuits the later runs, as always), precomputed in the parallel
     path (the runs were speculative, but the decision rule consumes them
     in the same order, so the verdict is the same). *)
  let merge golden_out pairs =
    let rec go pairs =
      match Seq.uncons pairs with
      | None -> Commutative
      | Some (pair, rest) -> (
          (* metered at consumption: the sequential path executed exactly
             the runs the merge consumes, so the total is jobs-invariant *)
          Telemetry.incr c_wp_schedule_runs;
          match pair with
          | _, `Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | _, `Verdict v -> v
          | sched, `Out out ->
              if Observable.outputs_equal ~eps:config.cc_eps golden_out out then go rest
              else
                Non_commutative
                  (Printf.sprintf "program output differs under %s" (Schedule.to_string sched)))
    in
    go pairs
  in
  match pool with
  | Some p when Pool.jobs p > 1 && scheds <> [] ->
      let results =
        Pool.map p
          (function
            | `Golden -> (
                match golden_run () with
                | out -> `Out out
                | exception e -> `Raised (e, Printexc.get_raw_backtrace ()))
            | `Sched sched -> sched_run sched)
          (`Golden :: List.map (fun s -> `Sched s) scheds)
      in
      let golden_out, sched_results =
        match results with
        (* the sequential path runs golden first: its failure wins *)
        | `Raised (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
        | `Out golden_out :: rest -> (golden_out, rest)
        | `Verdict _ :: _ | [] -> assert false
      in
      merge golden_out (List.to_seq (List.combine scheds sched_results))
  | _ ->
      let golden_out = golden_run () in
      merge golden_out (Seq.map (fun sched -> (sched, sched_run sched)) (List.to_seq scheds))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let test_loop ?pool config (info : Proginfo.t) spec fi sep =
  let loop = sep.sep_loop in
  let state =
    {
      ts_sep = sep;
      ts_tested = 0;
      ts_failure = None;
      ts_needs_escalation = [];
      ts_promotions = 0;
      ts_skipped = 0;
      ts_goldens = 0;
      ts_replays = 0;
      ts_replay_steps = 0;
      ts_per_invocation = [];
    }
  in
  let prog = Proginfo.program info in
  let ctx = context_of_spec spec prog in
  let handler ctx frame =
    if state.ts_failure <> None || state.ts_tested >= config.cc_max_invocations then
      run_loop_plain ctx frame loop
    else begin
      state.ts_tested <- state.ts_tested + 1;
      let pending_before = List.length state.ts_needs_escalation in
      let v = test_invocation ?pool config fi state ctx frame in
      let v_recorded =
        (* a strict digest mismatch defers to whole-program verification;
           surface that in the per-invocation trail *)
        if v = Commutative && List.length state.ts_needs_escalation > pending_before then
          Untestable "strict live-out digest differed; deferred to whole-program verification"
        else v
      in
      state.ts_per_invocation <- v_recorded :: state.ts_per_invocation;
      (match v with Commutative -> () | _ -> state.ts_failure <- Some v);
      run_loop_plain ctx frame loop
    end
  in
  Eval.add_interceptor ctx ~fname:loop.Loops.l_func ~header:loop.Loops.l_header handler;
  let base_verdict =
    match Eval.run_main ctx with
    | () -> begin
        match state.ts_failure with
        | Some v -> v
        | None -> if state.ts_tested = 0 then Untestable "loop not executed by the workload" else Commutative
      end
    | exception Eval.Trap msg -> Untestable ("program trapped: " ^ msg)
    | exception Eval.Out_of_fuel -> Untestable "program ran out of fuel"
  in
  let escalated = state.ts_needs_escalation <> [] in
  let verdict =
    match base_verdict with
    | Commutative when escalated ->
        if config.cc_escalate then escalate ?pool config info spec fi state.ts_sep state.ts_needs_escalation
        else Non_commutative "live-out digest differs (escalation disabled)"
    | v -> v
  in
  let outcome =
    {
      oc_verdict = verdict;
      oc_invocations = state.ts_tested;
      oc_escalated = escalated && config.cc_escalate;
      oc_promotions = state.ts_promotions;
      oc_skipped_schedules = state.ts_skipped;
      oc_golden_runs = state.ts_goldens;
      oc_replays = state.ts_replays;
      oc_replay_steps = state.ts_replay_steps;
      oc_separation = state.ts_sep;
      oc_per_invocation = List.rev state.ts_per_invocation;
    }
  in
  (* publish the work counters from the outcome record — the same totals
     the report derives, hence jobs-invariant by construction — and drain
     the main evaluator's diagnostics *)
  Telemetry.add c_invocations outcome.oc_invocations;
  Telemetry.add c_golden_runs outcome.oc_golden_runs;
  Telemetry.add c_replays outcome.oc_replays;
  Telemetry.add c_replay_steps outcome.oc_replay_steps;
  Telemetry.add c_skipped outcome.oc_skipped_schedules;
  Telemetry.add c_promotions outcome.oc_promotions;
  if outcome.oc_escalated then Telemetry.incr c_escalated;
  Store.flush_telemetry (Eval.store ctx);
  Telemetry.add d_instructions (Eval.steps ctx);
  outcome

(* Combined testing over several workloads (§V-D): every executed input
   must agree on commutativity. *)
let test_loop_inputs ?pool config info specs fi sep =
  match specs with
  | [] -> invalid_arg "Commutativity.test_loop_inputs: no run specs"
  | _ ->
      let outcomes = List.map (fun spec -> test_loop ?pool config info spec fi sep) specs in
      let executed =
        List.filter
          (fun oc ->
            match oc.oc_verdict with
            | Untestable "loop not executed by the workload" -> false
            | _ -> true)
          outcomes
      in
      let pool = if executed = [] then outcomes else executed in
      let pick pred = List.find_opt (fun oc -> pred oc.oc_verdict) pool in
      let combined =
        match pick (function Non_commutative _ -> true | _ -> false) with
        | Some oc -> oc
        | None -> (
            match pick (function Untestable _ -> true | _ -> false) with
            | Some oc -> oc
            | None -> List.hd pool)
      in
      {
        combined with
        oc_invocations = List.fold_left (fun acc oc -> acc + oc.oc_invocations) 0 outcomes;
        oc_escalated = List.exists (fun oc -> oc.oc_escalated) outcomes;
        oc_promotions = List.fold_left (fun acc oc -> max acc oc.oc_promotions) 0 outcomes;
        oc_skipped_schedules = List.fold_left (fun acc oc -> acc + oc.oc_skipped_schedules) 0 outcomes;
        oc_golden_runs = List.fold_left (fun acc oc -> acc + oc.oc_golden_runs) 0 outcomes;
        oc_replays = List.fold_left (fun acc oc -> acc + oc.oc_replays) 0 outcomes;
        oc_replay_steps = List.fold_left (fun acc oc -> acc + oc.oc_replay_steps) 0 outcomes;
        oc_per_invocation = List.concat_map (fun oc -> oc.oc_per_invocation) outcomes;
      }

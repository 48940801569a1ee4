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
   on the main evaluation path, from the totals of the ordered fold that
   consumes an invocation's replicas in schedule order (a replica past a
   trap is never counted), or in a loop's escalation, which follows the
   sequential rule at every width.  [interp.instructions] is the shared
   run's count, with the consumed replicas charged to it, plus the
   whole-program runs'. *)
let c_invocations = Telemetry.counter "dca.invocations"
let c_golden_runs = Telemetry.counter "dca.golden_runs"
let c_replays = Telemetry.counter "dca.replays"
let c_replay_steps = Telemetry.counter "dca.replay_steps"
let c_skipped = Telemetry.counter "dca.schedules_skipped"
let c_promotions = Telemetry.counter "dca.promotions"
let c_escalated = Telemetry.counter "dca.loops_escalated"
let c_program_runs = Telemetry.counter "dca.program_runs"
let c_wp_schedule_runs = Telemetry.counter "dca.wp_schedule_runs"
let c_attribution_runs = Telemetry.counter "dca.attribution_runs"
let c_instructions = Telemetry.counter "interp.instructions"

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

(* Slice or payload role of every instruction id of a separation's loop,
   in an array over the ids' range — classified once per separation, so
   golden recording looks an instruction up without a set search.  An id
   in both sets is a slice instruction. *)
type roles = { ro_base : int; ro_roles : Bytes.t }

let role_none = '\000'
let role_slice = '\001'
let role_payload = '\002'

let roles_of sep =
  let all = Intset.union sep.sep_slice sep.sep_payload in
  if Intset.is_empty all then { ro_base = 0; ro_roles = Bytes.empty }
  else begin
    let base = Intset.min_elt all in
    let roles = Bytes.make (Intset.max_elt all - base + 1) role_none in
    Intset.iter (fun iid -> Bytes.set roles (iid - base) role_payload) sep.sep_payload;
    Intset.iter (fun iid -> Bytes.set roles (iid - base) role_slice) sep.sep_slice;
    { ro_base = base; ro_roles = roles }
  end

let role roles iid =
  let k = iid - roles.ro_base in
  if k >= 0 && k < Bytes.length roles.ro_roles then Bytes.get roles.ro_roles k else role_none

(* Footprints as role bits.  Memory separability asks whether the
   iterator's and the payload's footprints in one golden run interfere:
   a payload write to a location the slice read or wrote, or a payload
   read of a location the slice wrote.  That needs four bits per
   location — slice read, slice write, payload read, payload write — kept
   in a shadow cell.  The cells are int arrays shaped like the store: one
   per heap block id, sized by the block on its first touch; one for the
   global slots; one cell for the generator.  Marking an access is an
   array index and an [lor], and an access to a location that is no cell
   is skipped, because the evaluator traps right after it.

   A shadow is reused by every golden run of its owner, a tested loop or
   a whole-program run.  A cell holds the stamp of the run that marked it
   and its bits; a run starts by moving the stamp on, so a cell of an
   earlier run reads as empty.  A run is flagged when a mark makes a cell
   conflict, and the flag is all whole-program verification reads.  Which
   instructions interfere is asked only when the loop-local test widens
   the iterator: {!attribute} records the invocation once more and reads
   the flagged run's cells. *)
let slice_read = 1
let slice_write = 2
let payload_read = 4
let payload_write = 8
let role_mask = 15
let stamp_step = 16

(* Bit [b] is set when the role bits [b] conflict. *)
let conflicting =
  let conflict b =
    (b land payload_write <> 0 && b land (slice_read lor slice_write) <> 0)
    || (b land payload_read <> 0 && b land slice_write <> 0)
  in
  List.fold_left (fun acc b -> if conflict b then acc lor (1 lsl b) else acc) 0 (List.init 16 Fun.id)

type shadow = {
  mutable sh_stamp : int;  (** the current run's stamp, a multiple of [stamp_step] *)
  mutable sh_heap : int array array;  (** by block id; [no_cells] until touched *)
  sh_globs : int array;
  mutable sh_rng : int;
  mutable sh_violation : bool;  (** a cell of the current run conflicts *)
}

let no_cells : int array = [||]

let new_shadow (prog : Ir.program) =
  {
    sh_stamp = 0;
    sh_heap = [||];
    sh_globs = Array.make (Array.length prog.Ir.p_globals) 0;
    sh_rng = 0;
    sh_violation = false;
  }

(* The role bits of cell [c] in the current run. *)
let bits sh c = if c land lnot role_mask = sh.sh_stamp then c land role_mask else 0

(* Cell [c] with [bit] set in the current run; flags the run if that
   makes the cell conflict. *)
let marked sh c bit =
  let c = if c land lnot role_mask = sh.sh_stamp then c else sh.sh_stamp in
  let c' = c lor bit in
  if c' <> c && (conflicting lsr (c' land role_mask)) land 1 <> 0 then sh.sh_violation <- true;
  c'

(* The cells of heap block [b] if they cover [off]; [no_cells] when
   [(b, off)] is no cell of the store [st].  An array smaller than its
   block — not touched yet, or left by a smaller block of an earlier run
   under the same id — grows to the block's size and keeps the marks
   this run made. *)
let heap_cells sh st b off =
  let heap = sh.sh_heap in
  let cells = if b >= 0 && b < Array.length heap then Array.unsafe_get heap b else no_cells in
  if off >= 0 && off < Array.length cells then cells
  else
    match Store.block_size st b with
    | Some size when off >= 0 && off < size ->
        let cap = Array.length heap in
        if b >= cap then begin
          let bigger = Array.make (max (2 * cap) (b + 1)) no_cells in
          Array.blit heap 0 bigger 0 cap;
          sh.sh_heap <- bigger
        end;
        let grown = Array.make size 0 in
        Array.blit cells 0 grown 0 (Array.length cells);
        sh.sh_heap.(b) <- grown;
        grown
    | _ -> no_cells

let mark sh st bit (loc : Events.loc) =
  match loc with
  | Events.Lheap (b, off) ->
      let cells = heap_cells sh st b off in
      if off >= 0 && off < Array.length cells then
        Array.unsafe_set cells off (marked sh (Array.unsafe_get cells off) bit)
  | Events.Lglob g -> sh.sh_globs.(g) <- marked sh sh.sh_globs.(g) bit
  | Events.Lrng -> sh.sh_rng <- marked sh sh.sh_rng bit
  | Events.Lreg _ -> ()

let loc_bits sh (loc : Events.loc) =
  match loc with
  | Events.Lheap (b, off) ->
      let heap = sh.sh_heap in
      if b >= 0 && b < Array.length heap && off >= 0 && off < Array.length heap.(b) then bits sh heap.(b).(off)
      else 0
  | Events.Lglob g -> bits sh sh.sh_globs.(g)
  | Events.Lrng -> bits sh sh.sh_rng
  | Events.Lreg _ -> 0

(* What a recording does with the loop's memory accesses: [Mark] sets
   the role bits of a golden run; [Attribute] reads the cells a golden
   run of the same invocation left and collects the payload writers of
   cells the slice touched and the payload readers of cells the slice
   wrote. *)
type mode = Mark | Attribute of Intset.t ref

type golden = {
  g_transitions : (int * int) array;  (** frame-level control transfers; (-1, header) marks iteration start *)
  g_segments : (int * int) list;  (** (start, stop) index ranges into g_transitions, one per header arrival *)
  g_payload_segments : int list;  (** indices into g_segments that execute payload *)
  g_snaps : Value.t array array;  (** interface values at each header arrival *)
  g_exit_snap : Value.t array;
  g_exit_block : int;
  g_violation : bool;  (** the footprints interfere: memory separability is violated *)
}

let iface_values frame sep =
  Array.of_list (List.map (fun iv -> frame.Eval.regs.(iv.if_var.Ir.vslot)) sep.sep_interface)

(* The live-out interface of [loop] in the current machine state: scalar
   values in fixed order plus the global aggregate roots.  Feeds both
   digest construction (golden run) and the in-place comparison every
   replay performs against the golden digest. *)
let digest_liveout fi loop ctx frame =
  let live = Liveness.loop_live_out fi.Proginfo.fi_live loop in
  let scalar_values =
    Intset.elements live
    |> List.filter_map (fun vid ->
           match Liveness.var_of_id fi.Proginfo.fi_live vid with
           | Some v when not v.Ir.vglobal -> Some frame.Eval.regs.(v.Ir.vslot)
           | _ -> None)
  in
  (* Heap the caller can still reach through a pointer the loop did NOT
     define — a local array, a list head — is observable after the loop
     even though no loop-defined scalar carries it, so those pointers must
     root the digest walk too.  Loop-defined pointers are already in
     [scalar_values] (capture dereferences every pointer cell). *)
  let exit_ptr_roots =
    Intset.elements (Intset.diff (Liveness.loop_live_exit fi.Proginfo.fi_live loop) live)
    |> List.filter_map (fun vid ->
           match Liveness.var_of_id fi.Proginfo.fi_live vid with
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

(* Run the loop once in original order under a memory sink: it reports
   the control transfers, and of the instructions only the memory and
   call instructions with their heap, global and generator accesses.  An
   access is the depth-0 instruction's: the callee's accesses are the
   call's.  The live-out digest is not part of the recording: only the
   loop-local test compares against it, so it captures it itself. *)
let record ctx frame sep roles shadow mode =
  let loop = sep.sep_loop in
  let header = loop.Loops.l_header in
  let in_loop b = Loops.contains_block loop b in
  let st = Eval.store ctx in
  let transitions = ref [] in
  let depth = ref 0 in
  (* the depth-0 instruction, and the role bits its reads and writes set
     (0: neither slice nor payload) *)
  let cur_iid = ref (-1) and read_bit = ref 0 and write_bit = ref 0 in
  let on_exec (i : Ir.instr) =
    if !depth = 0 then begin
      let iid = i.Ir.iid in
      cur_iid := iid;
      let r = role roles iid in
      if r = role_slice then begin
        read_bit := slice_read;
        write_bit := slice_write
      end
      else if r = role_payload then begin
        read_bit := payload_read;
        write_bit := payload_write
      end
      else begin
        read_bit := 0;
        write_bit := 0
      end
    end
  in
  let on_read, on_write =
    match mode with
    | Mark ->
        shadow.sh_stamp <- shadow.sh_stamp + stamp_step;
        shadow.sh_violation <- false;
        ( (fun loc _ -> if !read_bit <> 0 then mark shadow st !read_bit loc),
          fun loc _ -> if !write_bit <> 0 then mark shadow st !write_bit loc )
    | Attribute culprits ->
        let culprit () = culprits := Intset.add !cur_iid !culprits in
        ( (fun loc _ ->
            if !read_bit = payload_read && loc_bits shadow loc land slice_write <> 0 then culprit ()),
          fun loc _ ->
            if !write_bit = payload_write && loc_bits shadow loc land (slice_read lor slice_write) <> 0
            then culprit () )
  in
  let sink =
    {
      Events.on_exec;
      on_read;
      on_write;
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
  Eval.set_sink ~kind:Eval.Memory ctx (Some sink);
  let result = Fun.protect ~finally:(fun () -> Eval.set_sink ctx None) (fun () -> run ()) in
  let exit_block, snaps = result in
  let exit_snap = iface_values frame sep in
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
    g_violation = shadow.sh_violation;
  }

(* A golden run: the recording, its role bits marked in [shadow]. *)
let record_golden ctx frame sep roles shadow =
  fault_hit fp_golden "commutativity.golden";
  record ctx frame sep roles shadow Mark

(* The payload instructions that interfere with the iterator in the
   flagged golden run whose cells [shadow] holds: the invocation is
   recorded once more from its entry state [ctx]/[frame], on a replica.
   The replica repeats a run that completed, so it runs without a budget,
   and its work is not charged to the loop. *)
let attribute ctx frame sep roles shadow =
  let ctx = Eval.fork ctx and frame = Eval.copy_frame frame in
  Eval.set_limits ctx ~fuel:max_int ~deadline:max_int;
  let culprits = ref Intset.empty in
  Fun.protect
    ~finally:(fun () -> Store.flush_telemetry (Eval.store ctx))
    (fun () -> ignore (record ctx frame sep roles shadow (Attribute culprits)));
  !culprits

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
  let in_loop b = Loops.contains_block loop b in
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
  (* one payload filter for every payload iteration: the evaluator keeps
     a filter's decisions per block, keyed on the closure *)
  let payload_filter i = Intset.mem i.Ir.iid sep.sep_payload in
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
        match Ir.def_of (Pdg.instr fi.Proginfo.fi_pdg iid).Ir.idesc with
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
          Eval.sc_filter = payload_filter;
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
   golden run's live-out [digest] in place (no second capture is
   materialized). *)
let replay_matches ~eps ctx frame fi sep g digest sched =
  replay ctx frame fi sep g sched;
  matches_digest ~eps digest fi sep.sep_loop ctx frame

(* ------------------------------------------------------------------ *)
(* Mode A: loop-local testing via interception                         *)
(* ------------------------------------------------------------------ *)

type tester_state = {
  mutable ts_sep : separation;
  mutable ts_roles : roles;  (** [roles_of ts_sep] *)
  ts_shadow : shadow;  (** the role bits of every golden run of the loop *)
  mutable ts_attributions : int;  (** attribution passes *)
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
  let in_loop b = Loops.contains_block loop b in
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
    state.ts_roles <- roles_of sep';
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

(* One counted replay of [sched] on a replica forked from the entry state
   [ctx]/[frame]: the loop-local decision and the instructions the replay
   executed, or the exception that ended it.  Nothing is raised, so a
   replica never fails the pool's map; the fold below decides what its
   outcome means.  The replica's checkpoint traffic is flushed here. *)
let replay_replica ~eps ctx frame fi sep g digest sched =
  let ctx = Eval.fork ctx and frame = Eval.copy_frame frame in
  let traced = Telemetry.tracing () in
  let name = if traced then "replay " ^ Schedule.to_string sched else "" in
  let s0 = Eval.steps ctx in
  let label = ref "out-of-fuel" in
  if traced then Telemetry.begin_span ~cat:"dynamic" name;
  let r =
    match
      fault_hit ~ctx:(Schedule.to_string sched) fp_replay "commutativity.replay";
      replay_matches ~eps ctx frame fi sep g digest sched
    with
    | true ->
        label := "match";
        Ok `Ok
    | false ->
        label := "digest-mismatch";
        Ok `Escalate
    | exception Replay_mismatch _ ->
        (* control divergence prevents loop-local digesting;
           decide via whole-program verification *)
        label := "control-divergence";
        Ok `Escalate
    | exception Eval.Trap msg ->
        label := "trap";
        Ok (`Trap msg)
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let steps = Eval.steps ctx - s0 in
  if traced then
    Telemetry.end_span ~args:[ ("outcome", !label); ("instructions", string_of_int steps) ] name;
  Store.flush_telemetry (Eval.store ctx);
  (r, steps)

(* Run the post-identity permutation schedules.  Every representative
   replays on its own replica of the entry state, through [pool]; the
   outcomes are then folded in schedule order under the sequential rule.
   The fold charges each replica's instructions to [ctx], so the loop's
   fuel runs out exactly where replaying the schedules one after another
   would have: replica k ran with the whole remaining budget, and the
   charge checks the running sum.  The first exception in schedule order
   is re-raised, and a trap ends the fold, so later schedules contribute
   neither escalation marks nor counts — [jobs = n] and [jobs = 1] reach
   bit-identical verdicts.  A skipped duplicate inherits its
   representative's loop-local decision (a whole-program verification
   applies the schedule at *every* invocation of the loop, where two
   presets equal at this trip count need not coincide), so escalation
   marks are rebuilt over the full preset list — verdicts are identical
   to replaying everything. *)
let run_schedules pool config fi state ctx frame g digest =
  let n_iters = List.length g.g_payload_segments in
  let identity = Array.init n_iters (fun i -> i) in
  let schedules, skipped = sift_schedules config.cc_schedules n_iters in
  state.ts_skipped <- state.ts_skipped + skipped;
  let outcomes =
    Pool.map pool
      (fun (sched, _) -> replay_replica ~eps:config.cc_eps ctx frame fi state.ts_sep g digest sched)
      schedules
  in
  let rec fold acc = function
    | [] -> List.rev acc
    | (r, steps) :: rest -> (
        Eval.charge ctx steps;
        match r with
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok (`Trap _ as d) -> List.rev ((d, steps) :: acc)
        | Ok d -> fold ((d, steps) :: acc) rest)
  in
  let decisions = fold [] outcomes in
  (* meter only the consumed decisions, and only once the fold completed:
     an exception leaves the totals untouched *)
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

let test_invocation pool config fi state ctx frame =
  let st = Eval.store ctx in
  let s0 = Store.snapshot st in
  let regs0 = Array.copy frame.Eval.regs in
  let restore0 () =
    Store.restore st s0;
    Array.blit regs0 0 frame.Eval.regs 0 (Array.length regs0)
  in
  (* Every attempt starts from a restore: the first from the one below, a
     retry from the one its attribution pass needed.  A widening that
     fails after that restore leaves the entry state in place. *)
  let at_entry = ref false in
  let rec attempt rounds =
    state.ts_goldens <- state.ts_goldens + 1;
    let golden () =
      let g = record_golden ctx frame state.ts_sep state.ts_roles state.ts_shadow in
      (g, capture_digest fi state.ts_sep.sep_loop ctx frame)
    in
    match Telemetry.span ~cat:"dynamic" "golden" golden with
    | exception Replay_mismatch msg -> Untestable msg
    | exception Eval.Trap msg -> Untestable ("trap during golden run: " ^ msg)
    | g, digest -> begin
        if g.g_violation then begin
          if rounds > 0 then begin
            restore0 ();
            let violations =
              Telemetry.span ~cat:"dynamic" "golden" (fun () ->
                  attribute ctx frame state.ts_sep state.ts_roles state.ts_shadow)
            in
            state.ts_attributions <- state.ts_attributions + 1;
            match widen_or_fail fi state violations with
            | Ok () -> attempt (rounds - 1)
            | Error msg ->
                at_entry := true;
                Untestable msg
          end
          else Untestable "memory separability violated"
        end
        else begin
          (* identity self-check — metered like any other replay; it runs
             on the main context, the permuted replays on replicas of the
             entry state *)
          restore0 ();
          let steps0 = Eval.steps ctx in
          let count () =
            state.ts_replays <- state.ts_replays + 1;
            state.ts_replay_steps <- state.ts_replay_steps + (Eval.steps ctx - steps0)
          in
          match
            Telemetry.span ~cat:"dynamic" "replay identity" (fun () ->
                replay_matches ~eps:config.cc_eps ctx frame fi state.ts_sep g digest Schedule.Identity)
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
              restore0 ();
              run_schedules pool config fi state ctx frame g digest
        end
      end
  in
  (* leave the program in its untested, original-order state, also when
     the test raises: the shared run goes on for the other loops *)
  Fun.protect
    ~finally:(fun () ->
      if not !at_entry then restore0 ();
      Store.release st s0)
    (fun () ->
      restore0 ();
      attempt config.cc_promote_rounds)

(* ------------------------------------------------------------------ *)
(* Mode B: whole-program verification                                  *)
(* ------------------------------------------------------------------ *)

(* Run the entire program with every invocation of the loop executed under
   [sched]; return its outputs. *)
let whole_program_run (info : Proginfo.t) spec fi sep sched =
  let prog = Proginfo.program info in
  let ctx = context_of_spec spec prog in
  let loop = sep.sep_loop in
  let roles = roles_of sep in
  let shadow = new_shadow prog in
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
        let g = record_golden ctx frame sep roles shadow in
        if g.g_violation then raise (Replay_mismatch "separability violated in whole-program run");
        restore0 ();
        replay ctx frame fi sep g sched;
        (* continue the program from the permuted state *)
        g.g_exit_block)
  in
  Eval.add_interceptor ctx ~fname:loop.Loops.l_func ~header:loop.Loops.l_header handler;
  Fun.protect
    ~finally:(fun () ->
      Store.flush_telemetry (Eval.store ctx);
      Telemetry.add c_instructions (Eval.steps ctx))
    (fun () ->
      Eval.run_main ctx;
      Eval.outputs ctx)

(* Whole-program verification is one permuted run per schedule, each
   compared with [golden_out], the plain program's outputs, in schedule
   order: the first schedule that decides is the verdict, and the runs
   after it never start. *)
let escalate config info spec golden_out fi sep scheds =
  let rec go = function
    | [] -> Commutative
    | sched :: rest -> (
        Telemetry.incr c_wp_schedule_runs;
        let name = if Telemetry.tracing () then "wp-run " ^ Schedule.to_string sched else "" in
        match Telemetry.span ~cat:"dynamic" name (fun () -> whole_program_run info spec fi sep sched) with
        | out ->
            if Observable.outputs_equal ~eps:config.cc_eps golden_out out then go rest
            else
              Non_commutative
                (Printf.sprintf "program output differs under %s" (Schedule.to_string sched))
        | exception Replay_mismatch msg -> Untestable ("whole-program replay: " ^ msg)
        | exception Eval.Trap msg ->
            Non_commutative
              (Printf.sprintf "whole-program trap under %s: %s" (Schedule.to_string sched) msg)
        | exception Eval.Out_of_fuel -> Untestable "whole-program replay ran out of fuel")
  in
  go (Listx.dedup_keep_order ( = ) scheds)

(* ------------------------------------------------------------------ *)
(* Entry point: one shared program run tests every loop                 *)
(* ------------------------------------------------------------------ *)

(* How a loop's own run ended: with a verdict, or with an exception for
   the driver to classify. *)
type ending = Ended of verdict | Raised of exn * Printexc.raw_backtrace

let out_of_fuel = Ended (Untestable "program ran out of fuel")

(* One tested loop of a shared run.  [sl_steps] and [sl_ns] are the
   instructions and the wall time of the loop's own tests: its own run
   is the plain execution plus those.  [sl_end] is set when that run
   ends before the shared one. *)
type slot = {
  sl_fi : Proginfo.func_info;
  sl_loop : Loops.loop;
  sl_label : string;
  sl_state : tester_state;
  mutable sl_steps : int;
  mutable sl_ns : int;
  mutable sl_end : ending option;
}

(* How the plain execution of [main] ended. *)
type run_end = Completed | Trapped of string | Exhausted | Escaped of exn * Printexc.raw_backtrace

(* A span whose end event carries [args ()], built only when tracing. *)
let span_with_args ~cat name args f =
  if not (Telemetry.tracing ()) then f ()
  else begin
    Telemetry.begin_span ~cat name;
    Fun.protect ~finally:(fun () -> Telemetry.end_span ~args:(args ()) name) f
  end

(* One tested invocation: the harness of the loop's own run. *)
let test_one pool config sl ctx frame =
  let state = sl.sl_state in
  state.ts_tested <- state.ts_tested + 1;
  let pending_before = List.length state.ts_needs_escalation in
  let v =
    span_with_args ~cat:"dynamic" "invocation"
      (fun () -> [ ("loop", sl.sl_label); ("index", string_of_int state.ts_tested) ])
      (fun () -> test_invocation pool config sl.sl_fi state ctx frame)
  in
  let v_recorded =
    (* a strict digest mismatch defers to whole-program verification;
       surface that in the per-invocation trail *)
    if v = Commutative && List.length state.ts_needs_escalation > pending_before then
      Untestable "strict live-out digest differed; deferred to whole-program verification"
    else v
  in
  state.ts_per_invocation <- v_recorded :: state.ts_per_invocation;
  match v with Commutative -> () | _ -> state.ts_failure <- Some v

(* Run [main] once with an interceptor on every slot's header; return the
   program's outputs and how each slot's own run (the program with only
   that loop intercepted) ended.  Why each loop's outcome equals its own
   run's is DESIGN §17: a test restores the entry state it found and runs
   with the other interceptors silenced, and budgets are charged per
   loop.  The plain part runs with the plain program's budget, a test
   with what its loop has left; a loop whose budget ran out in the plain
   part is found when its next invocation starts or when the run ends,
   since nothing it records changes in between.  A deadline counts only
   once the loop's own run has reached a guard point, the only place its
   own run would have looked. *)
let shared_run pool config info spec slots =
  Telemetry.incr c_program_runs;
  let ctx = context_of_spec spec (Proginfo.program info) in
  let t0 = Telemetry.now_ns () in
  (* instructions and time of every test so far: the plain execution is
     the rest of the context's totals *)
  let test_steps = ref 0 and test_ns = ref 0 in
  let fuel_limit own = !test_steps + spec.rs_fuel - own in
  let deadline_limit own =
    match spec.rs_deadline_ns with None -> max_int | Some d -> t0 + !test_ns + d - own
  in
  let plain_limits () = Eval.set_limits ctx ~fuel:(fuel_limit 0) ~deadline:(deadline_limit 0) in
  let exhausted sl =
    let own_steps = Eval.steps ctx - !test_steps + sl.sl_steps in
    if Eval.steps ctx > fuel_limit sl.sl_steps then Some out_of_fuel
    else if own_steps >= Eval.guard_interval && Telemetry.now_ns () > deadline_limit sl.sl_ns then
      Some (Raised (Eval.Deadline_exceeded, Printexc.get_callstack 0))
    else None
  in
  let handler sl ctx frame =
    let state = sl.sl_state in
    if sl.sl_end = None && state.ts_failure = None && state.ts_tested < config.cc_max_invocations
    then begin
      match exhausted sl with
      | Some e -> sl.sl_end <- Some e
      | None ->
          Eval.set_limits ctx ~fuel:(fuel_limit sl.sl_steps) ~deadline:(deadline_limit sl.sl_ns);
          let s0 = Eval.steps ctx and n0 = Telemetry.now_ns () in
          (match Eval.without_interceptors ctx (fun () -> test_one pool config sl ctx frame) with
          | () -> ()
          | exception Eval.Out_of_fuel -> sl.sl_end <- Some out_of_fuel
          | exception e -> sl.sl_end <- Some (Raised (e, Printexc.get_raw_backtrace ())));
          let steps = Eval.steps ctx - s0 and ns = Telemetry.now_ns () - n0 in
          sl.sl_steps <- sl.sl_steps + steps;
          sl.sl_ns <- sl.sl_ns + ns;
          test_steps := !test_steps + steps;
          test_ns := !test_ns + ns;
          plain_limits ()
    end;
    run_loop_plain ctx frame sl.sl_loop
  in
  List.iter
    (fun sl ->
      Eval.add_interceptor ctx ~fname:sl.sl_loop.Loops.l_func ~header:sl.sl_loop.Loops.l_header
        (handler sl))
    slots;
  plain_limits ();
  let run_end =
    Telemetry.span ~cat:"dynamic" "loop run" (fun () ->
        match Eval.run_main ctx with
        | () -> Completed
        | exception Eval.Trap msg -> Trapped msg
        | exception Eval.Out_of_fuel -> Exhausted
        | exception e -> Escaped (e, Printexc.get_raw_backtrace ()))
  in
  Store.flush_telemetry (Eval.store ctx);
  Telemetry.add c_instructions (Eval.steps ctx);
  (* the runs of the loops still going end where the shared run did,
     unless their own budget ran out first *)
  let final sl =
    match (run_end, exhausted sl) with
    | Exhausted, _ -> out_of_fuel
    | _, Some e -> e
    | Escaped (e, bt), None -> Raised (e, bt)
    | Trapped msg, None -> Ended (Untestable ("program trapped: " ^ msg))
    | Completed, None -> (
        let state = sl.sl_state in
        match state.ts_failure with
        | Some v -> Ended v
        | None ->
            Ended
              (if state.ts_tested = 0 then Untestable "loop not executed by the workload"
               else Commutative))
  in
  (Eval.outputs ctx, List.map (fun sl -> match sl.sl_end with Some e -> e | None -> final sl) slots)

let new_state prog sep =
  {
    ts_sep = sep;
    ts_roles = roles_of sep;
    ts_shadow = new_shadow prog;
    ts_attributions = 0;
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

(* A loop's outcome once the shared run is over: escalation against the
   run's outputs (a loop escalates only if the run completed, so these
   are the plain program's outputs), and the work counters published
   from the outcome record — the same totals the report derives, hence
   jobs-invariant by construction. *)
let finish config info spec golden_out sl ending =
  match ending with
  | Raised (e, bt) -> Error (e, bt)
  | Ended base -> (
      let state = sl.sl_state in
      let escalated = state.ts_needs_escalation <> [] in
      match
        match base with
        | Commutative when escalated ->
            if config.cc_escalate then
              escalate config info spec golden_out sl.sl_fi state.ts_sep state.ts_needs_escalation
            else Non_commutative "live-out digest differs (escalation disabled)"
        | v -> v
      with
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
      | verdict ->
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
          Telemetry.add c_invocations outcome.oc_invocations;
          Telemetry.add c_golden_runs outcome.oc_golden_runs;
          Telemetry.add c_replays outcome.oc_replays;
          Telemetry.add c_replay_steps outcome.oc_replay_steps;
          Telemetry.add c_skipped outcome.oc_skipped_schedules;
          Telemetry.add c_promotions outcome.oc_promotions;
          Telemetry.add c_attribution_runs state.ts_attributions;
          if outcome.oc_escalated then Telemetry.incr c_escalated;
          Ok outcome)

let test_loops ?(pool = Pool.create ~jobs:1) config (info : Proginfo.t) spec loops =
  match loops with
  | [] -> []
  | _ ->
      let slots =
        List.map
          (fun (fi, sep) ->
            {
              sl_fi = fi;
              sl_loop = sep.sep_loop;
              sl_label = Proginfo.loop_label info sep.sep_loop;
              sl_state = new_state (Proginfo.program info) sep;
              sl_steps = 0;
              sl_ns = 0;
              sl_end = None;
            })
          loops
      in
      let golden_out, endings = shared_run pool config info spec slots in
      (* the loops escalate independently of each other, so they are the
         pool's tasks here; each one's escalation is sequential *)
      Pool.map pool
        (fun (sl, ending) -> finish config info spec golden_out sl ending)
        (List.combine slots endings)

(* Combined testing over several workloads (§V-D): every executed input
   must agree on commutativity. *)
let combine_inputs outcomes =
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

let test_loop_inputs ?pool config info specs loops =
  if specs = [] then invalid_arg "Commutativity.test_loop_inputs: no run specs";
  (* one shared run per input; the first failure, in input then loop
     order, is raised *)
  let runs =
    List.map
      (fun spec ->
        List.map
          (function Ok oc -> oc | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
          (test_loops ?pool config info spec loops))
      specs
  in
  List.mapi (fun i _ -> combine_inputs (List.map (fun run -> List.nth run i) runs)) loops

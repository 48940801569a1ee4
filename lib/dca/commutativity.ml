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
}

let default_config =
  {
    cc_schedules = Schedule.presets ();
    cc_eps = 1e-6;
    cc_escalate = true;
    cc_max_invocations = 4;
  }

let promote_rounds = 3

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

(* DCA_CHECKPOINT=deep selects the deep-copy oracle store; it is read
   here, where a spec is made, not per store. *)
let make_run_spec ?(fuel = Eval.default_fuel) ?deadline_ns ?heap_words ?checkpoint input =
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
   evaluator's own exceptions ({!Eval.hit_fault}), so an injected fault
   exercises exactly the degradation path a guest-program fault would: a
   trap under a permuted replay is non-commutativity evidence, a
   golden-run trap makes the loop untestable. *)
let fp_golden = Faultpoint.site "commutativity.golden"
let fp_replay = Faultpoint.site "commutativity.replay"

(* A span whose end event carries [args ()], built only when tracing. *)
let span_with_args ~cat name args f =
  if not (Telemetry.tracing ()) then f ()
  else begin
    Telemetry.begin_span ~cat name;
    Fun.protect ~finally:(fun () -> Telemetry.end_span ~args:(args ()) name) f
  end

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

(* The live-out interface of a loop, as the frame slots and global slots
   the digest reads: the local scalars live out of the loop, by variable
   id; the locals live at the exit that the loop does not define, whose
   pointers root the heap walk too (a local array or a list head is
   observable after the loop though no loop-defined scalar carries it;
   loop-defined pointers are among the scalars, and capture dereferences
   every pointer cell); and the globals, scalars and aggregate roots
   apart, in slot order.  Computed once per tested loop, not on every
   capture and comparison. *)
type liveout = {
  lo_locals : int array;
  lo_exit_ptrs : int array;
  lo_global_scalars : int array;
  lo_global_roots : int array;
}

let liveout_of (prog : Ir.program) fi loop =
  let live = Proginfo.live fi in
  let local_slots vids =
    Array.of_list
      (List.filter_map
         (fun vid ->
           match Liveness.var_of_id live vid with
           | Some v when not v.Ir.vglobal -> Some v.Ir.vslot
           | _ -> None)
         (Intset.elements vids))
  in
  let live_out = Liveness.loop_live_out live loop in
  let globals aggregate =
    Array.of_list
      (List.filter
         (fun slot -> prog.Ir.p_globals.(slot).Ir.g_aggregate = aggregate)
         (List.init (Array.length prog.Ir.p_globals) Fun.id))
  in
  {
    lo_locals = local_slots live_out;
    lo_exit_ptrs = local_slots (Intset.diff (Liveness.loop_live_exit live loop) live_out);
    lo_global_scalars = globals false;
    lo_global_roots = globals true;
  }

(* Everything recording, replaying and the digest read of a separation,
   computed once per separation (a widening computes it again) rather
   than on every recording, replay or capture. *)
type prepared = {
  pr_sep : separation;
  pr_header : int;
  pr_roles : roles;
  pr_cbr : Bytes.t;  (** by block id of the loop's function: the block ends in a conditional branch *)
  pr_slice_cbr : Bytes.t;  (** by block id: [sep_slice_cbr_blocks] *)
  pr_outside : int -> bool;  (** stop of a whole pass: a block outside the loop *)
  pr_iteration_end : int -> bool;  (** stop of one iteration: the header, or outside *)
  pr_slice : Ir.instr -> bool;  (** the iterator pass's filter *)
  pr_payload : Ir.instr -> bool;  (** the payload pass's filter *)
  pr_slice_slots : int array;  (** frame slots of the locals slice instructions define *)
  pr_iface_slots : int array;  (** frame slots of the interface variables, in interface order *)
  pr_iface_post : bool array;  (** the payload reads the variable after the iterator's update *)
  pr_liveout : liveout;
}

let prepare fi liveout sep =
  let loop = sep.sep_loop in
  let header = loop.Loops.l_header in
  let blocks = (Cfg.func fi.Proginfo.fi_cfg).Ir.fblocks in
  let cbr = Bytes.make (Array.length blocks) '\000' in
  Array.iteri (fun b blk -> match blk.Ir.bterm with Ir.Cbr _ -> Bytes.set cbr b '\001' | _ -> ()) blocks;
  let slice_cbr = Bytes.make (Array.length blocks) '\000' in
  Intset.iter (fun b -> Bytes.set slice_cbr b '\001') sep.sep_slice_cbr_blocks;
  let roles = roles_of sep in
  let _, slice_slots =
    Intset.fold
      (fun iid ((seen, slots) as acc) ->
        match Ir.def_of (Pdg.instr (Proginfo.pdg fi) iid).Ir.idesc with
        | Some v when (not v.Ir.vglobal) && not (Intset.mem v.Ir.vid seen) ->
            (Intset.add v.Ir.vid seen, v.Ir.vslot :: slots)
        | _ -> acc)
      sep.sep_slice (Intset.empty, [])
  in
  let iface = Array.of_list sep.sep_interface in
  {
    pr_sep = sep;
    pr_header = header;
    pr_roles = roles;
    pr_cbr = cbr;
    pr_slice_cbr = slice_cbr;
    pr_outside = (fun b -> not (Loops.contains_block loop b));
    pr_iteration_end = (fun b -> b = header || not (Loops.contains_block loop b));
    pr_slice = (fun i -> role roles i.Ir.iid = role_slice);
    pr_payload = (fun i -> role roles i.Ir.iid = role_payload);
    pr_slice_slots = Array.of_list slice_slots;
    pr_iface_slots = Array.map (fun iv -> iv.if_var.Ir.vslot) iface;
    pr_iface_post = Array.map (fun iv -> iv.if_phase = Post) iface;
    pr_liveout = liveout;
  }

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

(* A growable buffer of ints, and one of interface snapshots.  They grow
   by doubling into fresh arrays whose initial value is an int or the
   empty array, never a young block, so no growth forces a minor
   collection. *)
type ints = { mutable i_a : int array; mutable i_n : int }

let ints () = { i_a = Array.make 64 0; i_n = 0 }

let push b x =
  if b.i_n = Array.length b.i_a then begin
    let a = Array.make (2 * b.i_n) 0 in
    Array.blit b.i_a 0 a 0 b.i_n;
    b.i_a <- a
  end;
  Array.unsafe_set b.i_a b.i_n x;
  b.i_n <- b.i_n + 1

type snaps = { mutable s_a : Value.t array array; mutable s_n : int }

let push_snap b x =
  if b.s_n = Array.length b.s_a then begin
    let a = Array.make (max 16 (2 * b.s_n)) [||] in
    Array.blit b.s_a 0 a 0 b.s_n;
    b.s_a <- a
  end;
  b.s_a.(b.s_n) <- x;
  b.s_n <- b.s_n + 1

(* The golden trace, built while the run goes.  A segment is the part of
   the run between two header arrivals; a replay reads, of the loop's
   frame, only the conditional branches' directions and where each
   segment's directions start, so those are all that is kept. *)
type golden = {
  g_dirs : ints;  (** conditional-branch transfers of the loop's frame: source at [2k], destination at [2k + 1] *)
  g_bounds : ints;  (** segment [s] holds directions [g_bounds.(s)] to [g_bounds.(s + 1)] (exclusive) *)
  g_payload : ints;  (** the segments that enter the body — the iterations — in order *)
  g_snaps : snaps;  (** interface values at each header arrival, one per segment *)
  g_exit_snap : Value.t array;
  g_exit_block : int;
  g_violation : bool;  (** the footprints interfere: memory separability is violated *)
}

let iterations g = g.g_payload.i_n

let iface_values frame prep = Array.map (fun slot -> frame.Eval.regs.(slot)) prep.pr_iface_slots

(* The digest's scalars and roots in the current machine state: feeds
   both the golden run's capture and the in-place comparison every
   replay performs against it. *)
let digest_liveout prep ctx frame =
  let lo = prep.pr_liveout and regs = frame.Eval.regs and st = Eval.store ctx in
  let globals slots tail = Array.fold_right (fun g acc -> Store.read_global st g :: acc) slots tail in
  let scalars =
    Array.fold_right (fun slot acc -> regs.(slot) :: acc) lo.lo_locals (globals lo.lo_global_scalars [])
  in
  let roots =
    Array.fold_right
      (fun slot acc -> match regs.(slot) with Value.VPtr _ as p -> p :: acc | _ -> acc)
      lo.lo_exit_ptrs
      (globals lo.lo_global_roots [])
  in
  (scalars, roots)

let capture_digest prep ctx frame =
  let scalars, roots = digest_liveout prep ctx frame in
  Observable.capture (Eval.store ctx) ~scalars ~roots

let matches_digest ~eps golden prep ctx frame =
  let scalars, roots = digest_liveout prep ctx frame in
  Observable.matches ~eps golden (Eval.store ctx) ~scalars ~roots

(* Run the loop once in original order under a memory sink: it reports
   the control transfers, and of the instructions only the memory and
   call instructions with their heap, global and generator accesses.  An
   access is the depth-0 instruction's: the callee's accesses are the
   call's.  The live-out digest is not part of the recording: only the
   loop-local test compares against it, so it captures it itself. *)
let record ctx frame prep shadow mode =
  let loop = prep.pr_sep.sep_loop in
  let header = prep.pr_header in
  let st = Eval.store ctx in
  let dirs = ints () and bounds = ints () and payload = ints () in
  let snaps = { s_a = [||]; s_n = 0 } in
  (* the open segment entered the body *)
  let body = ref false in
  let close_segment () = if !body then push payload (bounds.i_n - 1) in
  let depth = ref 0 in
  (* the depth-0 instruction, and the role bits its reads and writes set
     (0: neither slice nor payload) *)
  let cur_iid = ref (-1) and read_bit = ref 0 and write_bit = ref 0 in
  let on_exec (i : Ir.instr) =
    if !depth = 0 then begin
      let iid = i.Ir.iid in
      cur_iid := iid;
      let r = role prep.pr_roles iid in
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
  (* a transfer from no block starts a segment: every per-iteration
     [exec_upto] begins at the header; a segment that enters a loop
     block other than the header is an iteration — the final segment of a
     header-exiting loop transfers straight out and is not *)
  let on_block ~fname:_ ~src ~dst =
    if !depth = 0 then
      if src < 0 then begin
        if bounds.i_n > 0 then close_segment ();
        body := false;
        push bounds (dirs.i_n / 2)
      end
      else begin
        if Bytes.get prep.pr_cbr src <> '\000' then begin
          push dirs src;
          push dirs dst
        end;
        if (not !body) && dst <> header && Loops.contains_block loop dst then body := true
      end
  in
  let sink =
    {
      Events.on_exec;
      on_read;
      on_write;
      on_block;
      on_call = (fun _ -> incr depth);
      on_return = (fun _ -> decr depth);
    }
  in
  let run () =
    push_snap snaps (iface_values frame prep);
    let rec go cur =
      match Eval.exec_upto ctx frame ~start:cur ~stop:prep.pr_iteration_end ~control:None with
      | Eval.Stopped_at b when b = header ->
          push_snap snaps (iface_values frame prep);
          go header
      | Eval.Stopped_at e -> e
      | Eval.Returned _ -> raise (Replay_mismatch "function returned from inside the loop")
    in
    go header
  in
  (* no other sink can be active here: DCA testing runs own its own
     evaluator contexts, never under the profiler *)
  Eval.set_sink ~kind:Eval.Memory ctx (Some sink);
  let exit_block = Fun.protect ~finally:(fun () -> Eval.set_sink ctx None) run in
  close_segment ();
  push bounds (dirs.i_n / 2);
  {
    g_dirs = dirs;
    g_bounds = bounds;
    g_payload = payload;
    g_snaps = snaps;
    g_exit_snap = iface_values frame prep;
    g_exit_block = exit_block;
    g_violation = shadow.sh_violation;
  }

(* A golden run: the recording, its role bits marked in [shadow]. *)
let record_golden ctx frame prep shadow =
  Eval.hit_fault fp_golden;
  record ctx frame prep shadow Mark

(* The payload instructions that interfere with the iterator in the
   flagged golden run whose cells [shadow] holds: the invocation is
   recorded once more from its entry state [ctx]/[frame], on a replica.
   The replica repeats a run that completed, so it runs without a budget,
   and its work is not charged to the loop. *)
let attribute ctx frame prep shadow =
  let ctx = Eval.fork ctx and frame = Eval.copy_frame frame in
  Eval.set_limits ctx ~fuel:max_int ~deadline:max_int;
  let culprits = ref Intset.empty in
  Fun.protect
    ~finally:(fun () -> Store.flush_telemetry (Eval.store ctx))
    (fun () -> ignore (record ctx frame prep shadow (Attribute culprits)));
  !culprits

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Advance [cursor] (an index ref into the directions, below [stop]) to
   the next direction whose source is [bid]; return its destination. *)
let direction g cursor stop bid =
  let dirs = g.g_dirs.i_a in
  let rec scan k =
    if k >= stop then raise (Replay_mismatch (Printf.sprintf "no recorded direction for block %d" bid))
    else if dirs.(2 * k) = bid then begin
      cursor := k + 1;
      dirs.((2 * k) + 1)
    end
    else scan (k + 1)
  in
  scan !cursor

(* A re-execution of the loop from its entry state is an iterator pass
   (slice only, recorded path) and then a payload pass (payload only,
   scheduled iteration order).  One invocation's iterator passes are all
   the same — same entry state, same directions — so the loop-local test
   runs it once and its replicas start after it. *)
let iterator_pass ctx frame prep g =
  let cursor = ref 0 and stop = g.g_dirs.i_n / 2 in
  let control =
    { Eval.sc_filter = prep.pr_slice; sc_override = (fun bid -> Some (direction g cursor stop bid)) }
  in
  match Eval.exec_upto ctx frame ~start:prep.pr_header ~stop:prep.pr_outside ~control:(Some control) with
  | Eval.Stopped_at e when e = g.g_exit_block -> ()
  | Eval.Stopped_at e ->
      raise (Replay_mismatch (Printf.sprintf "iterator pass exited at %d, golden exited at %d" e g.g_exit_block))
  | Eval.Returned _ -> raise (Replay_mismatch "iterator pass returned")

(* The payload pass under [sched], from the state the iterator pass left:
   each iteration starts from its recorded interface values and the
   slice's branches take their recorded directions; then the iterator's
   exit values, which the interface presets clobbered, come back so
   live-outs reflect the completed traversal. *)
let payload_pass ctx frame prep g sched =
  let regs = frame.Eval.regs in
  let slice_exit = Array.map (fun slot -> regs.(slot)) prep.pr_slice_slots in
  let snaps = g.g_snaps in
  let cursor = ref 0 and seg_stop = ref 0 in
  let control =
    {
      Eval.sc_filter = prep.pr_payload;
      sc_override =
        (fun bid ->
          if Bytes.get prep.pr_slice_cbr bid <> '\000' then Some (direction g cursor !seg_stop bid) else None);
    }
  in
  Array.iter
    (fun k ->
      let seg = g.g_payload.i_a.(k) in
      let pre = snaps.s_a.(seg) and post = if seg + 1 < snaps.s_n then snaps.s_a.(seg + 1) else g.g_exit_snap in
      Array.iteri
        (fun j slot -> regs.(slot) <- (if prep.pr_iface_post.(j) then post.(j) else pre.(j)))
        prep.pr_iface_slots;
      cursor := g.g_bounds.i_a.(seg);
      seg_stop := g.g_bounds.i_a.(seg + 1);
      match
        Eval.exec_upto ctx frame ~start:prep.pr_header ~stop:prep.pr_iteration_end ~control:(Some control)
      with
      | Eval.Stopped_at _ -> ()
      | Eval.Returned _ -> raise (Replay_mismatch "payload pass returned"))
    (Schedule.apply sched (iterations g));
  Array.iteri (fun j slot -> regs.(slot) <- slice_exit.(j)) prep.pr_slice_slots

(* ------------------------------------------------------------------ *)
(* Mode A: loop-local testing via interception                         *)
(* ------------------------------------------------------------------ *)

type tester_state = {
  mutable ts_prep : prepared;  (** the current (possibly widened) separation, prepared *)
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
  let prep = state.ts_prep in
  let sep' = Iterator_rec.widen fi prep.pr_sep ~promote:violations in
  if sep'.sep_mixed_cbr then Error "promotion produced mixed branch conditions"
  else if sep'.sep_ambiguous <> [] then Error "promotion produced an ambiguous interface"
  else if Iterator_rec.is_iterator_only sep' then Error "iterator absorbed the whole payload"
  else begin
    state.ts_prep <- prepare fi prep.pr_liveout sep';
    state.ts_promotions <- state.ts_promotions + 1;
    Ok ()
  end

(* The state every replica of one invocation starts from: a fork of the
   context and a copy of the frame right after the invocation's iterator
   pass, and the instructions that pass executed. *)
type after_iterator = { ai_ctx : Eval.ctx; ai_frame : Eval.frame; ai_steps : int }

(* One counted replay of [sched] on a replica of [ai]: the loop-local
   decision and the instructions the replay executed, or the exception
   that ended it.  The replica starts at [start], the step count it would
   start at if it ran its own iterator pass, and is first charged that
   pass's instructions, inside its own exception handling: fuel runs out
   on the same schedule, at the same count, and the replay's instructions
   are the same as if it had run the pass itself.  Nothing is raised, so
   a replica never fails the pool's map; the fold below decides what its
   outcome means.  The replica's checkpoint traffic is flushed here. *)
let replay_replica ~eps ~start ai prep g digest sched =
  let ctx = Eval.fork ~steps:start ai.ai_ctx and frame = Eval.copy_frame ai.ai_frame in
  let traced = Telemetry.tracing () in
  let name = if traced then "replay " ^ Schedule.to_string sched else "" in
  let label = ref "out-of-fuel" in
  if traced then Telemetry.begin_span ~cat:"dynamic" name;
  let r =
    match
      Eval.hit_fault ~ctx:(Schedule.to_string sched) fp_replay;
      Eval.charge ctx ai.ai_steps;
      payload_pass ctx frame prep g sched;
      matches_digest ~eps digest prep ctx frame
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
  let steps = Eval.steps ctx - start in
  if traced then
    Telemetry.end_span ~args:[ ("outcome", !label); ("instructions", string_of_int steps) ] name;
  Store.flush_telemetry (Eval.store ctx);
  (r, steps)

(* Run the post-identity permutation schedules [schedules] (the sifted
   representatives).  Every representative replays on its own replica of
   the post-iterator state [ai], through [pool]; the outcomes are then
   folded in schedule order under the sequential rule.  The fold charges
   each replica's instructions to [ctx], so the loop's fuel runs out
   exactly where replaying the schedules one after another would have:
   replica k ran with the whole remaining budget, and the charge checks
   the running sum.  The first exception in schedule order is re-raised,
   and a trap ends the fold, so later schedules contribute neither
   escalation marks nor counts — [jobs = n] and [jobs = 1] reach
   bit-identical verdicts.  A skipped duplicate inherits its
   representative's loop-local decision (a whole-program verification
   applies the schedule at *every* invocation of the loop, where two
   presets equal at this trip count need not coincide), so escalation
   marks are rebuilt over the full preset list — verdicts are identical
   to replaying everything. *)
let run_schedules pool config state ctx ai g digest schedules =
  let n_iters = iterations g in
  let identity = Array.init n_iters (fun i -> i) in
  let start = Eval.steps ctx in
  let outcomes =
    Pool.map pool
      (fun (sched, _) -> replay_replica ~eps:config.cc_eps ~start ai state.ts_prep g digest sched)
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
    let prep = state.ts_prep in
    state.ts_goldens <- state.ts_goldens + 1;
    let golden () =
      let g = record_golden ctx frame prep state.ts_shadow in
      (g, capture_digest prep ctx frame)
    in
    let s = Eval.steps ctx in
    match
      span_with_args ~cat:"dynamic" "golden" (fun () -> [ ("instructions", string_of_int (Eval.steps ctx - s)) ]) golden
    with
    | exception Replay_mismatch msg -> Untestable msg
    | exception Eval.Trap msg -> Untestable ("trap during golden run: " ^ msg)
    | g, digest -> begin
        if g.g_violation then begin
          if rounds > 0 then begin
            restore0 ();
            let violations =
              Telemetry.span ~cat:"dynamic" "golden" (fun () -> attribute ctx frame prep state.ts_shadow)
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
          (* identity self-check — metered like any other replay.  It runs
             on the main context; its iterator pass is the one every
             schedule shares, so when schedules will run, the state right
             after it is forked for their replicas *)
          restore0 ();
          (* only one representative per distinct permutation replays: the
             identity permutation re-runs the self-check, and a duplicate
             re-derives the identical digest from the identical entry
             state, so neither can change the decision *)
          let schedules, skipped = Schedule.sift config.cc_schedules (iterations g) in
          let steps0 = Eval.steps ctx in
          let count () =
            state.ts_replays <- state.ts_replays + 1;
            state.ts_replay_steps <- state.ts_replay_steps + (Eval.steps ctx - steps0)
          in
          let after = ref None in
          let identity () =
            iterator_pass ctx frame prep g;
            if schedules <> [] then
              after :=
                Some { ai_ctx = Eval.fork ctx; ai_frame = Eval.copy_frame frame; ai_steps = Eval.steps ctx - steps0 };
            payload_pass ctx frame prep g Schedule.Identity;
            matches_digest ~eps:config.cc_eps digest prep ctx frame
          in
          Fun.protect
            ~finally:(fun () -> Option.iter (fun ai -> Store.flush_telemetry (Eval.store ai.ai_ctx)) !after)
            (fun () ->
              match Telemetry.span ~cat:"dynamic" "replay identity" identity with
              | exception Replay_mismatch msg ->
                  count ();
                  Untestable ("identity replay: " ^ msg)
              | exception Eval.Trap msg ->
                  count ();
                  Untestable ("identity replay trap: " ^ msg)
              | false ->
                  count ();
                  Untestable "identity replay does not reproduce the golden state"
              | true -> (
                  count ();
                  restore0 ();
                  state.ts_skipped <- state.ts_skipped + skipped;
                  match !after with
                  | Some ai -> run_schedules pool config state ctx ai g digest schedules
                  | None -> Commutative))
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
      attempt promote_rounds)

(* ------------------------------------------------------------------ *)
(* Mode B: whole-program verification                                  *)
(* ------------------------------------------------------------------ *)

(* Run the entire program with every invocation of the loop executed under
   [sched]; return its outputs.  The loop's tests prepared its final
   separation [prep] and own the [shadow] its golden runs mark: the run
   reuses both, as the loop-local test reuses them across invocations. *)
let whole_program_run (info : Proginfo.t) spec prep shadow sched =
  let ctx = context_of_spec spec (Proginfo.program info) in
  let loop = prep.pr_sep.sep_loop in
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
        let g = record_golden ctx frame prep shadow in
        if g.g_violation then raise (Replay_mismatch "separability violated in whole-program run");
        restore0 ();
        iterator_pass ctx frame prep g;
        payload_pass ctx frame prep g sched;
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
let escalate config info spec golden_out state scheds =
  let rec go = function
    | [] -> Commutative
    | sched :: rest -> (
        Telemetry.incr c_wp_schedule_runs;
        let name = if Telemetry.tracing () then "wp-run " ^ Schedule.to_string sched else "" in
        match
          Telemetry.span ~cat:"dynamic" name (fun () ->
              whole_program_run info spec state.ts_prep state.ts_shadow sched)
        with
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

let new_state prog fi sep =
  {
    ts_prep = prepare fi (liveout_of prog fi sep.sep_loop) sep;
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
              escalate config info spec golden_out state state.ts_needs_escalation
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
              oc_separation = state.ts_prep.pr_sep;
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
              sl_state = new_state (Proginfo.program info) fi sep;
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

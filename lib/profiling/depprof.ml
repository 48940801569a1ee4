open Dca_analysis
open Dca_interp

type dep_kind = Raw | War | Waw

let dep_kind_to_string = function Raw -> "RAW" | War -> "WAR" | Waw -> "WAW"

type dep = { d_kind : dep_kind; d_write_iid : int; d_read_iid : int; d_loc : Events.loc }

type invocation = { inv_iters : int; inv_iter_costs : int array }

type loop_profile = {
  mutable lp_invocations : invocation list;
  mutable lp_total_cost : int;
  mutable lp_total_iters : int;
}

(* A profile's loop-carried dependences: the dependence pass, run on the
   first demand and kept.  The lock makes the memo safe to force from
   several domains at once; the second waits for the first's table. *)
type dependences = {
  dp_lock : Mutex.t;
  dp_pass : unit -> (string, dep list) Hashtbl.t;
  mutable dp_table : (string, dep list) Hashtbl.t option;
}

type profile = {
  pr_loops : (string, loop_profile) Hashtbl.t;
  pr_total_cost : int;
  pr_buckets : (string list * int) list;
  pr_deps : dependences;
}

let max_invocations_kept = 256
let c_dependence_runs = Dca_support.Telemetry.counter "profiling.dependence_runs"

(* Two passes run [main] with the same fuel and input and share the stack
   of loop contexts below.  The cost pass attaches a [Control] sink:
   blocks run their plain closures, and only transfers, calls and returns
   reach the profiler.  The dependence pass attaches an [All] sink and
   keeps shadow memory of every register and heap access.

   Cost model: the evaluator's step counter is the clock, read at every
   control event into [total], and every cost is a difference of [total]
   taken where the stack of active loop contexts changes.  A context
   stays active from its entry to its exit, so its cost is [total] at
   exit minus [total] at entry; the instructions run between two changes
   of the stack all go to that stack's bucket. *)

(* One static loop: its output record, the invocations that record keeps,
   and the dependences the dependence pass found in it, newest context
   first. *)
type loop_state = { ls_lp : loop_profile; mutable ls_kept : int; mutable ls_deps : dep list }

(* A node of the trie of active-loop stacks: the coverage bucket of the
   stack spelled by its path from the root.  A bucket's key lists the
   call frames outermost first and each frame's loops innermost first. *)
type bucket = {
  b_callers : string list;  (** the key of the callers' frames *)
  b_frame : string list;  (** the top frame's loop ids, innermost first *)
  mutable b_cost : int;
  mutable b_children : (loop_state * bool * bucket) list;
      (** per child: its loop and whether it opens a frame *)
}

module Keys = Hashtbl.Make (Int)

(* One dynamic activation of a loop. *)
type context = {
  cx_loop : Loops.loop;
  cx_state : loop_state;
  cx_serial : int;  (** unique over the run: stamps the shadow records it owns *)
  cx_bucket : bucket;
  cx_entry : int;  (** [total] at entry *)
  mutable cx_iter : int;
  mutable cx_stamp : int;
      (** [cx_iter lsl iid_bits]: access stamps below it are from earlier iterations *)
  mutable cx_iter_start : int;  (** [total] when the current iteration began *)
  mutable cx_costs_rev : int list;
  cx_keys : unit Keys.t;  (** {!dep_key} of every element of [cx_deps] *)
  mutable cx_deps : dep list;
}

(* Shadow memory.  Contexts form a LIFO stack: a block transfer unwinds
   only the top frame's contexts and a return only the callee's, so a
   context keeps one stack depth for its whole life.  A region shadows a
   group of locations (the registers by vid, the global slots, one heap
   block, the generator) with one flat int array per depth, allocated on
   the first access at that depth, [stride] ints per location:

   - the serial of the context that owns the record; a record stamped by
     any other context reads as no record yet;
   - the last write and the last read, as the access stamp
     [(iter lsl iid_bits) lor (iid + 1)], or -1;
   - per dependence kind, the {!dep_key} this record last found in its
     owner's [cx_keys], or -1: a dependence carried by every iteration
     then skips the table.

   Stamps and keys are exact while [2 * iid_bits + 2] bits and
   [iterations lsl iid_bits] fit in an int. *)
type region = { r_size : int; mutable r_depths : int array array }

let stride = 6
let f_write = 1
let f_read = 2
let f_raw = 3
let f_war = 4
let f_waw = 5
let no_shadow : int array = [||]
let new_region size = { r_size = size; r_depths = [||] }
let no_region = new_region 0

type shadow = {
  store : Store.t;
  iid_bits : int;  (** every [iid + 1] fits in this many bits *)
  regs : region;
  globs : region;
  rng : region;
  mutable heap : region array;  (** by block id; [no_region] until touched *)
  stray : (Events.loc, region) Hashtbl.t;
      (** locations that are no cell: the evaluator traps right after them *)
}

type t = {
  shadow : shadow option;  (** the dependence pass's; [None] in the cost pass *)
  mutable total : int;  (** [Eval.steps] at the latest control event *)
  mutable flushed : int;  (** [total] at the last change of the stack *)
  root : bucket;
  states : (string, loop_state) Hashtbl.t;
  loops : (string, loop_profile) Hashtbl.t;
  mutable stack : context array;  (** active contexts, outermost first *)
  mutable depth : int;
  mutable serial : int;
  mutable frames : (Loops.forest * int) list;
      (** per call frame, innermost first: its loop forest and the depth
          at which its contexts start *)
}

let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1)

(* The largest variable and instruction ids of the program. *)
let id_bounds (p : Dca_ir.Ir.program) =
  let open Dca_ir.Ir in
  let max_vid = ref 0 and max_iid = ref 0 in
  let var v = max_vid := max !max_vid v.vid in
  Array.iter (fun g -> var g.g_var) p.p_globals;
  List.iter
    (fun f ->
      List.iter var f.fparams;
      List.iter var f.flocal_aggs;
      Array.iter
        (fun b ->
          List.iter
            (fun i ->
              max_iid := max !max_iid i.iid;
              Option.iter var (def_of i.idesc);
              List.iter var (uses_of i.idesc))
            b.instrs;
          List.iter var (term_uses b.bterm))
        f.fblocks)
    p.p_funcs;
  (!max_vid, !max_iid)

(* A dependence of [kind] from instruction [w1 - 1] to [r1 - 1]. *)
let dep_key sd kind w1 r1 =
  let k = match kind with Raw -> 0 | War -> 1 | Waw -> 2 in
  (((w1 lsl sd.iid_bits) lor r1) lsl 2) lor k

let note sd cx sh slot kind w1 r1 loc =
  let key = dep_key sd kind w1 r1 in
  if sh.(slot) <> key then begin
    if not (Keys.mem cx.cx_keys key) then begin
      Keys.replace cx.cx_keys key ();
      cx.cx_deps <-
        { d_kind = kind; d_write_iid = w1 - 1; d_read_iid = r1 - 1; d_loc = loc } :: cx.cx_deps
    end;
    sh.(slot) <- key
  end

(* Location [i] of region [r] is accessed: update its record in every
   active context and note the cross-iteration dependences it closes. *)
let touch t sd r i is_write loc iid =
  let n = Array.length r.r_depths in
  if n < t.depth then begin
    let bigger = Array.make (Array.length t.stack) no_shadow in
    Array.blit r.r_depths 0 bigger 0 n;
    r.r_depths <- bigger
  end;
  let o = i * stride in
  let mask = (1 lsl sd.iid_bits) - 1 in
  for d = 0 to t.depth - 1 do
    let cx = t.stack.(d) in
    let sh =
      let sh = r.r_depths.(d) in
      if sh != no_shadow then sh
      else begin
        let sh = Array.make (r.r_size * stride) 0 in
        r.r_depths.(d) <- sh;
        sh
      end
    in
    if sh.(o) <> cx.cx_serial then begin
      sh.(o) <- cx.cx_serial;
      sh.(o + f_write) <- -1;
      sh.(o + f_read) <- -1;
      sh.(o + f_raw) <- -1;
      sh.(o + f_war) <- -1;
      sh.(o + f_waw) <- -1
    end;
    let now = cx.cx_stamp in
    let lw = sh.(o + f_write) in
    if is_write then begin
      if lw >= 0 && lw < now then note sd cx sh (o + f_waw) Waw (lw land mask) (iid + 1) loc;
      let lr = sh.(o + f_read) in
      if lr >= 0 && lr < now then note sd cx sh (o + f_war) War (iid + 1) (lr land mask) loc;
      sh.(o + f_write) <- now lor (iid + 1)
    end
    else begin
      if lw >= 0 && lw < now then note sd cx sh (o + f_raw) Raw (lw land mask) (iid + 1) loc;
      sh.(o + f_read) <- now lor (iid + 1)
    end
  done

let heap_region sd b =
  if b >= 0 && b < Array.length sd.heap && sd.heap.(b) != no_region then sd.heap.(b)
  else
    match Store.block_size sd.store b with
    | None -> no_region
    | Some size ->
        let cap = Array.length sd.heap in
        if b >= cap then begin
          let bigger = Array.make (max (2 * cap) (b + 1)) no_region in
          Array.blit sd.heap 0 bigger 0 cap;
          sd.heap <- bigger
        end;
        let r = new_region size in
        sd.heap.(b) <- r;
        r

let stray_region sd loc =
  match Hashtbl.find_opt sd.stray loc with
  | Some r -> r
  | None ->
      let r = new_region 1 in
      Hashtbl.replace sd.stray loc r;
      r

let access t sd is_write (loc : Events.loc) iid =
  if t.depth > 0 then
    match loc with
    | Events.Lreg v -> touch t sd sd.regs v is_write loc iid
    | Events.Lglob s -> touch t sd sd.globs s is_write loc iid
    | Events.Lrng -> touch t sd sd.rng 0 is_write loc iid
    | Events.Lheap (b, off) ->
        let r = heap_region sd b in
        if off >= 0 && off < r.r_size then touch t sd r off is_write loc iid
        else touch t sd (stray_region sd loc) 0 is_write loc iid

let top_bucket t = if t.depth = 0 then t.root else t.stack.(t.depth - 1).cx_bucket

(* Charge the instructions run since the last change of the stack to the
   current stack's bucket; called before every change. *)
let flush t =
  let b = top_bucket t in
  b.b_cost <- b.b_cost + (t.total - t.flushed);
  t.flushed <- t.total

let state_of t (l : Loops.loop) =
  match Hashtbl.find_opt t.states l.Loops.l_id with
  | Some st -> st
  | None ->
      let lp = { lp_invocations = []; lp_total_cost = 0; lp_total_iters = 0 } in
      Hashtbl.replace t.loops l.Loops.l_id lp;
      let st = { ls_lp = lp; ls_kept = 0; ls_deps = [] } in
      Hashtbl.replace t.states l.Loops.l_id st;
      st

let new_bucket callers frame = { b_callers = callers; b_frame = frame; b_cost = 0; b_children = [] }
let no_keys : unit Keys.t = Keys.create 0

(* Enter loop [l]; [opens] when it is the first active loop of its frame. *)
let push t (l : Loops.loop) ~opens =
  let st = state_of t l in
  let parent = top_bucket t in
  let bucket =
    match List.find_opt (fun (s, o, _) -> s == st && o = opens) parent.b_children with
    | Some (_, _, b) -> b
    | None ->
        let id = l.Loops.l_id in
        let b =
          if opens then new_bucket (parent.b_callers @ parent.b_frame) [ id ]
          else new_bucket parent.b_callers (id :: parent.b_frame)
        in
        parent.b_children <- (st, opens, b) :: parent.b_children;
        b
  in
  t.serial <- t.serial + 1;
  let cx =
    {
      cx_loop = l;
      cx_state = st;
      cx_serial = t.serial;
      cx_bucket = bucket;
      cx_entry = t.total;
      cx_iter = 0;
      cx_stamp = 0;
      cx_iter_start = t.total;
      cx_costs_rev = [];
      cx_keys = (if Option.is_some t.shadow then Keys.create 16 else no_keys);
      cx_deps = [];
    }
  in
  if t.depth = Array.length t.stack then begin
    let bigger = Array.make (max 16 (2 * t.depth)) cx in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- cx;
  t.depth <- t.depth + 1

(* The cost pass keeps iteration costs only while the invocation can still
   be kept: [ls_kept] never decreases, so one that starts an iteration
   with the loop's quota full is dropped at exit. *)
let next_iteration t cx =
  (match t.shadow with
  | None ->
      if cx.cx_state.ls_kept < max_invocations_kept then
        cx.cx_costs_rev <- (t.total - cx.cx_iter_start) :: cx.cx_costs_rev
  | Some sd -> cx.cx_stamp <- cx.cx_stamp + (1 lsl sd.iid_bits));
  cx.cx_iter_start <- t.total;
  cx.cx_iter <- cx.cx_iter + 1

(* Finalize the top context: the cost pass records its costs, the
   dependence pass its dependences.  Iteration 0's cost runs from entry
   to the first back edge; the last entry covers the exit path of the
   last iteration.  A loop keeps its first [max_invocations_kept]
   invocations, most recent first. *)
let pop t =
  t.depth <- t.depth - 1;
  let cx = t.stack.(t.depth) in
  let st = cx.cx_state in
  match t.shadow with
  | Some _ -> st.ls_deps <- cx.cx_deps @ st.ls_deps
  | None ->
      let lp = st.ls_lp in
      if st.ls_kept < max_invocations_kept then begin
        let costs = Array.of_list (List.rev ((t.total - cx.cx_iter_start) :: cx.cx_costs_rev)) in
        lp.lp_invocations <- { inv_iters = cx.cx_iter + 1; inv_iter_costs = costs } :: lp.lp_invocations;
        st.ls_kept <- st.ls_kept + 1
      end;
      lp.lp_total_cost <- lp.lp_total_cost + (t.total - cx.cx_entry);
      lp.lp_total_iters <- lp.lp_total_iters + cx.cx_iter + 1

let on_block t ~src ~dst =
  match t.frames with
  | [] -> ()
  | (forest, base) :: _ -> (
      (* leave contexts whose loop does not contain dst *)
      while t.depth > base && not (Loops.contains_block t.stack.(t.depth - 1).cx_loop dst) do
        flush t;
        pop t
      done;
      match Loops.loop_of_header forest dst with
      | None -> ()
      | Some l ->
          if
            t.depth > base
            && t.stack.(t.depth - 1).cx_loop == l
            && Loops.contains_block l src
          then (* back edge: new iteration *)
            next_iteration t t.stack.(t.depth - 1)
          else begin
            flush t;
            push t l ~opens:(t.depth = base)
          end)

let on_return t =
  match t.frames with
  | (_, base) :: rest ->
      if t.depth > base then flush t;
      while t.depth > base do
        pop t
      done;
      t.frames <- rest
  | [] -> ()

let rec collect_buckets b acc =
  let acc = if b.b_cost > 0 then (b.b_callers @ b.b_frame, b.b_cost) :: acc else acc in
  List.fold_left (fun acc (_, _, c) -> collect_buckets c acc) acc b.b_children

let new_shadow store prog =
  let max_vid, max_iid = id_bounds prog in
  {
    store;
    iid_bits = bits (max_iid + 1);
    regs = new_region (max_vid + 1);
    globs = new_region (Array.length prog.Dca_ir.Ir.p_globals);
    rng = new_region 1;
    heap = [||];
    stray = Hashtbl.create 8;
  }

(* Run [main] once with the context stack attached, with shadow memory
   when [deps], and unwind what is left when it returns. *)
let run_pass ?fuel ?input (info : Proginfo.t) ~deps =
  let prog = Proginfo.program info in
  let ctx = Eval.create ?fuel ?input prog in
  let t =
    {
      shadow = (if deps then Some (new_shadow (Eval.store ctx) prog) else None);
      total = 0;
      flushed = 0;
      root = new_bucket [] [];
      states = Hashtbl.create 64;
      loops = Hashtbl.create 64;
      stack = [||];
      depth = 0;
      serial = 0;
      frames = [];
    }
  in
  let control =
    {
      Events.null_sink with
      on_block =
        (fun ~fname:_ ~src ~dst ->
          t.total <- Eval.steps ctx;
          on_block t ~src ~dst);
      on_call =
        (fun fname ->
          let fi = Proginfo.func_info info fname in
          t.frames <- (fi.Proginfo.fi_forest, t.depth) :: t.frames);
      on_return =
        (fun _ ->
          t.total <- Eval.steps ctx;
          on_return t);
    }
  in
  (match t.shadow with
  | None -> Eval.set_sink ~kind:Eval.Control ctx (Some control)
  | Some sd ->
      Eval.set_sink ~kind:Eval.All ctx
        (Some
           {
             control with
             on_read = (fun loc iid -> access t sd false loc iid);
             on_write = (fun loc iid -> access t sd true loc iid);
           }));
  Eval.run_main ctx;
  Eval.set_sink ctx None;
  (* unwind anything left (main returned) *)
  t.total <- Eval.steps ctx;
  flush t;
  while t.depth > 0 do
    pop t
  done;
  t

let dependences ?fuel ?input info =
  Dca_support.Telemetry.incr c_dependence_runs;
  let t = run_pass ?fuel ?input info ~deps:true in
  let deps = Hashtbl.create (Hashtbl.length t.states) in
  Hashtbl.iter (fun id st -> Hashtbl.replace deps id st.ls_deps) t.states;
  deps

let profile_program ?fuel ?input (info : Proginfo.t) =
  let t = run_pass ?fuel ?input info ~deps:false in
  {
    pr_loops = t.loops;
    pr_total_cost = t.total;
    pr_buckets = collect_buckets t.root [];
    pr_deps =
      { dp_lock = Mutex.create (); dp_pass = (fun () -> dependences ?fuel ?input info); dp_table = None };
  }

let loop_profile p id = Hashtbl.find_opt p.pr_loops id

let coverage_of p detected =
  if p.pr_total_cost = 0 then 0.0
  else begin
    let covered =
      List.fold_left
        (fun acc (stack, cost) ->
          if List.exists (fun id -> List.mem id detected) stack then acc + cost else acc)
        0 p.pr_buckets
    in
    float_of_int covered /. float_of_int p.pr_total_cost
  end

let forced p =
  let d = p.pr_deps in
  Mutex.protect d.dp_lock (fun () ->
      match d.dp_table with
      | Some deps -> deps
      | None ->
          let deps = d.dp_pass () in
          d.dp_table <- Some deps;
          deps)

(* A loop that never ran has no dependences, and asks for no pass. *)
let deps_of p id =
  match loop_profile p id with
  | None -> []
  | Some _ -> Option.value (Hashtbl.find_opt (forced p) id) ~default:[]

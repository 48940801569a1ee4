(* Reference implementation of Dca_profiling.Depprof kept for differential
   testing: one hash-table per loop context, costs counted on every
   executed instruction.  test_profiling checks that the shadow-memory
   profiler returns exactly this module's profiles. *)

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
  mutable lp_deps : dep list;
}

type profile = {
  pr_loops : (string, loop_profile) Hashtbl.t;
  pr_total_cost : int;
  pr_buckets : (string list * int) list;
}

(* Per-location access record inside one loop context. *)
type access_record = {
  mutable lw_iter : int;  (** last write iteration, -1 = none *)
  mutable lw_iid : int;
  mutable lr_iter : int;  (** last read iteration, -1 = none *)
  mutable lr_iid : int;
}

(* One dynamic activation of a loop. *)
type context = {
  cx_loop : Loops.loop;
  cx_id : string;
  mutable cx_iter : int;
  mutable cx_cur_cost : int;
  mutable cx_costs_rev : int list;
  cx_table : (Events.loc, access_record) Hashtbl.t;
  cx_dep_keys : (dep_kind * int * int, unit) Hashtbl.t;  (** dedup keys *)
  mutable cx_deps : dep list;
}

(* The per-frame state: the function's loop forest and the frame's own
   stack of active loop contexts (innermost last). *)
type frame_state = { fs_forest : Loops.forest; mutable fs_contexts : context list }

let max_invocations_kept = 256

let profile_program ?fuel ?input (info : Proginfo.t) =
  let prog = Proginfo.program info in
  let ctx = Eval.create ?fuel ?input prog in
  let loops_tbl : (string, loop_profile) Hashtbl.t = Hashtbl.create 64 in
  let loop_prof id =
    match Hashtbl.find_opt loops_tbl id with
    | Some lp -> lp
    | None ->
        let lp = { lp_invocations = []; lp_total_cost = 0; lp_total_iters = 0; lp_deps = [] } in
        Hashtbl.replace loops_tbl id lp;
        lp
  in
  let buckets : (string list, int) Hashtbl.t = Hashtbl.create 64 in
  let total_cost = ref 0 in
  (* frame stack; each frame has its loop-context stack *)
  let frames : frame_state list ref = ref [] in
  (* flat list of all active contexts (outermost first), kept in sync *)
  let active : context list ref = ref [] in
  let sync_active () =
    active := List.concat_map (fun fs -> fs.fs_contexts) (List.rev !frames)
  in
  let finish_iteration cx =
    cx.cx_costs_rev <- cx.cx_cur_cost :: cx.cx_costs_rev;
    cx.cx_cur_cost <- 0
  in
  let finalize_context cx =
    finish_iteration cx;
    let lp = loop_prof cx.cx_id in
    let costs = Array.of_list (List.rev cx.cx_costs_rev) in
    (* iteration 0 cost accumulates between entry and first latch; the
       final entry covers the exit path of the last iteration *)
    let inv = { inv_iters = cx.cx_iter + 1; inv_iter_costs = costs } in
    if List.length lp.lp_invocations < max_invocations_kept then
      lp.lp_invocations <- inv :: lp.lp_invocations;
    lp.lp_total_iters <- lp.lp_total_iters + inv.inv_iters;
    lp.lp_deps <- cx.cx_deps @ lp.lp_deps
  in
  let record_access is_write loc iid =
    List.iter
      (fun cx ->
        let rec_ =
          match Hashtbl.find_opt cx.cx_table loc with
          | Some r -> r
          | None ->
              let r = { lw_iter = -1; lw_iid = -1; lr_iter = -1; lr_iid = -1 } in
              Hashtbl.replace cx.cx_table loc r;
              r
        in
        let it = cx.cx_iter in
        let add kind w r =
          let key = (kind, w, r) in
          if not (Hashtbl.mem cx.cx_dep_keys key) then begin
            Hashtbl.replace cx.cx_dep_keys key ();
            cx.cx_deps <- { d_kind = kind; d_write_iid = w; d_read_iid = r; d_loc = loc } :: cx.cx_deps
          end
        in
        if is_write then begin
          if rec_.lw_iter >= 0 && rec_.lw_iter < it then add Waw rec_.lw_iid iid;
          if rec_.lr_iter >= 0 && rec_.lr_iter < it then add War iid rec_.lr_iid;
          rec_.lw_iter <- it;
          rec_.lw_iid <- iid
        end
        else begin
          if rec_.lw_iter >= 0 && rec_.lw_iter < it then add Raw rec_.lw_iid iid;
          rec_.lr_iter <- it;
          rec_.lr_iid <- iid
        end)
      !active
  in
  let on_block ~fname ~src ~dst =
    match !frames with
    | [] -> ()
    | fs :: _ ->
        (* leave contexts whose loop does not contain dst *)
        let rec unwind = function
          | cx :: rest when not (Loops.contains_block cx.cx_loop dst) ->
              finalize_context cx;
              unwind rest
          | l -> l
        in
        fs.fs_contexts <- unwind fs.fs_contexts;
        (match Loops.loop_of_header fs.fs_forest dst with
        | Some l -> begin
            match fs.fs_contexts with
            | cx :: _ when cx.cx_loop.Loops.l_id = l.Loops.l_id && src >= 0
                           && Loops.contains_block l src ->
                (* back edge: new iteration *)
                finish_iteration cx;
                cx.cx_iter <- cx.cx_iter + 1
            | _ ->
                let cx =
                  {
                    cx_loop = l;
                    cx_id = l.Loops.l_id;
                    cx_iter = 0;
                    cx_cur_cost = 0;
                    cx_costs_rev = [];
                    cx_table = Hashtbl.create 64;
                    cx_dep_keys = Hashtbl.create 16;
                    cx_deps = [];
                  }
                in
                fs.fs_contexts <- cx :: fs.fs_contexts
          end
        | None -> ());
        ignore fname;
        sync_active ()
  in
  let sink =
    {
      Events.on_exec =
        (fun _ ->
          incr total_cost;
          let stack_key = List.map (fun cx -> cx.cx_id) !active in
          Hashtbl.replace buckets stack_key
            (1 + Option.value ~default:0 (Hashtbl.find_opt buckets stack_key));
          List.iter
            (fun cx ->
              cx.cx_cur_cost <- cx.cx_cur_cost + 1;
              let lp = loop_prof cx.cx_id in
              lp.lp_total_cost <- lp.lp_total_cost + 1)
            !active);
      on_read = (fun loc iid -> record_access false loc iid);
      on_write = (fun loc iid -> record_access true loc iid);
      on_block;
      on_call =
        (fun fname ->
          let fi = Proginfo.func_info info fname in
          frames := { fs_forest = fi.Proginfo.fi_forest; fs_contexts = [] } :: !frames;
          sync_active ());
      on_return =
        (fun _ ->
          (match !frames with
          | fs :: rest ->
              List.iter finalize_context fs.fs_contexts;
              frames := rest
          | [] -> ());
          sync_active ());
    }
  in
  Eval.set_sink ctx (Some sink);
  Eval.run_main ctx;
  Eval.set_sink ctx None;
  (* unwind anything left (main returned) *)
  List.iter (fun fs -> List.iter finalize_context fs.fs_contexts) !frames;
  {
    pr_loops = loops_tbl;
    pr_total_cost = !total_cost;
    pr_buckets = Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets [];
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

let deps_of p id = match loop_profile p id with Some lp -> lp.lp_deps | None -> []

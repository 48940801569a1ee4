open Dca_ir

(* Bump whenever the proof obligations below change: the serve cache keys
   verdicts on this number (via [Progdigest.config_digest]), so a stale
   entry proved under weaker obligations can never satisfy a newer
   binary. *)
let version = 1

type proof =
  | Proved of { pf_groups : int; pf_stores : int }
  | Fission of { fs_proved : int; fs_residual : int; fs_reason : string }
  | Bail of string

(* ------------------------------------------------------------------ *)
(* Instruction-level obligations                                       *)
(* ------------------------------------------------------------------ *)

(* The proof argues about exactly the effects [Affine.accesses_of_loop]
   can see: direct loads/stores of heap cells and global scalars.  Any
   instruction with effects outside that window — user calls (whose
   callee's accesses are invisible), impure builtins (PRNG state),
   allocation (observable block identity), I/O — defeats the argument
   outright. *)
let instruction_bail prog (instrs : Ir.instr list) =
  let check (i : Ir.instr) =
    match i.Ir.idesc with
    | Ir.Call (_, name, _) -> (
        if Ir.find_func prog name <> None then
          Some (Printf.sprintf "calls user function '%s'" name)
        else
          match Dca_frontend.Ast.find_builtin name with
          | Some b when b.Dca_frontend.Ast.bi_pure -> None
          | _ -> Some (Printf.sprintf "calls impure builtin '%s'" name))
    | Ir.Alloc _ -> Some "allocates inside the loop"
    | Ir.Print _ | Ir.Prints _ -> Some "performs I/O"
    | _ -> None
  in
  List.find_map check instrs

(* ------------------------------------------------------------------ *)
(* Scalar obligations                                                  *)
(* ------------------------------------------------------------------ *)

(* Scalars are discharged through the paper's privatization/reduction
   classification, with two extra obligations the dynamic stage never
   needs (it observes actual final state):

   - a [Private] scalar that is live out carries its *last* iteration's
     value out of the loop, so its final value depends on iteration
     order;
   - a floating-point reduction reassociates under permutation and the
     dynamic stage only tolerates that up to an epsilon — a *proof* of
     commutativity cannot lean on a tolerance, so only integer
     reductions (exact wrap-around arithmetic) are accepted. *)
let scalar_bail (fi : Proginfo.func_info) (loop : Loops.loop) =
  let live_out = Liveness.loop_live_out (Proginfo.live fi) loop in
  let classes = Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) loop in
  let name vid =
    match Liveness.var_of_id (Proginfo.live fi) vid with
    | Some v -> v.Ir.vname
    | None -> Printf.sprintf "#%d" vid
  in
  List.find_map
    (fun (vid, cls) ->
      match cls with
      | Scalars.Carried -> Some (Printf.sprintf "loop-carried scalar '%s'" (name vid))
      | Scalars.Private when Dca_support.Intset.mem vid live_out ->
          Some (Printf.sprintf "private scalar '%s' is live out (last-value order-dependent)" (name vid))
      | Scalars.Reduction _ -> (
          match Liveness.var_of_id (Proginfo.live fi) vid with
          | Some v when v.Ir.vty = Dca_frontend.Ast.Tint -> None
          | _ ->
              Some
                (Printf.sprintf "floating-point reduction '%s' (reassociation is inexact)"
                   (name vid)))
      | Scalars.Induction | Scalars.Private -> None)
    classes

(* ------------------------------------------------------------------ *)
(* Memory obligations                                                  *)
(* ------------------------------------------------------------------ *)

(* Accesses are grouped by resolved root object and every pair involving
   a write must be refuted:

   - identical roots go through [Deptest.cross_iteration] (ZIV /
     strong-SIV / GCD on the subscript difference) — including a write's
     self-pair, which rules out invariant-address stores;
   - *differing* roots that [Deptest.may_alias] are failed outright:
     their subscripts are relative to different bases, so no distance
     argument applies.  This is deliberately stricter than the dynamic
     baselines; it also covers [Runknown] roots (alias everything);
   - two distinct pointer parameters are failed as well: [may_alias]
     answers for the *callee's* view, but a caller may pass the same
     array twice, and a proof must hold for every caller. *)
let group_key (a : Affine.access) = a.Affine.acc_root

let pair_conflict ~loop_id (a : Affine.access) (b : Affine.access) =
  if not (a.Affine.acc_write || b.Affine.acc_write) then None
  else if group_key a = group_key b then
    match Deptest.cross_iteration ~loop_id a b with
    | Deptest.No_dep -> None
    | Deptest.Dep reason -> Some reason
  else
    match (a.Affine.acc_root, b.Affine.acc_root) with
    | Affine.Rparam p, Affine.Rparam q when p <> q ->
        Some "distinct pointer parameters may be aliased by a caller"
    | ra, rb when Deptest.may_alias ra rb -> Some "accesses with differing may-aliasing roots"
    | _ -> None

(* Value-dependence walk for the fission split: may the value stored by a
   proved-group store be computed (this iteration) from a load belonging
   to a residual group?  Walks unique in-loop definitions, exactly like
   the memory-reduction recognizer; a variable with several in-loop
   definitions is conservatively assumed tainted. *)
let store_reads_residual instrs residual_loads =
  let def_table : (int, Ir.instr option) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (i : Ir.instr) ->
      match Ir.def_of i.Ir.idesc with
      | Some v ->
          Hashtbl.replace def_table v.Ir.vid
            (if Hashtbl.mem def_table v.Ir.vid then None else Some i)
      | None -> ())
    instrs;
  let rec tainted_op depth op =
    depth < 24
    &&
    match op with
    | Ir.Ovar v -> (
        match Hashtbl.find_opt def_table v.Ir.vid with
        | None -> false (* defined outside the loop: invariant this iteration *)
        | Some None -> true (* several in-loop defs: give up *)
        | Some (Some def) ->
            Dca_support.Intset.mem def.Ir.iid residual_loads
            || List.exists (tainted_op (depth + 1))
                 (match def.Ir.idesc with
                 | Ir.Bin (_, _, a, b) -> [ a; b ]
                 | Ir.Un (_, _, a) | Ir.Mov (_, a) | Ir.Load (_, a) -> [ a ]
                 | Ir.Gep (_, base, idx, _) -> [ base; idx ]
                 | Ir.Call (_, _, args) -> args
                 | Ir.Gload _ | Ir.Gaddr _ -> []
                 | Ir.Store _ | Ir.Gstore _ | Ir.Alloc _ | Ir.Print _ | Ir.Prints _ -> []))
    | Ir.Oint _ | Ir.Ofloat _ | Ir.Onull -> false
  in
  fun (store : Ir.instr) ->
    match store.Ir.idesc with
    | Ir.Store (_, value) | Ir.Gstore (_, value) -> tainted_op 0 value
    | _ -> false

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)
(* ------------------------------------------------------------------ *)

let prove (info : Proginfo.t) (fi : Proginfo.func_info) (loop : Loops.loop) =
  let affine = Proginfo.affine fi in
  if not (Affine.counted_header affine loop) then
    Bail "not a well-formed counted loop (single induction variable, invariant bound)"
  else
    match Affine.induction_var affine loop with
    | None -> Bail "no unique induction variable"
    | Some (_, 0) -> Bail "induction variable has step 0"
    | Some _ -> (
        let instrs = Loops.instrs_of fi.Proginfo.fi_cfg loop in
        match instruction_bail (Proginfo.program info) instrs with
        | Some reason -> Bail reason
        | None -> (
            match scalar_bail fi loop with
            | Some reason -> Bail reason
            | None ->
                let accesses = Affine.accesses_of_loop affine loop in
                let loop_id = loop.Loops.l_id in
                (* mark every group touched by an offending pair *)
                let failed : (Affine.root, string) Hashtbl.t = Hashtbl.create 8 in
                let arr = Array.of_list accesses in
                let n = Array.length arr in
                for i = 0 to n - 1 do
                  for j = i to n - 1 do
                    match pair_conflict ~loop_id arr.(i) arr.(j) with
                    | Some reason ->
                        if not (Hashtbl.mem failed (group_key arr.(i))) then
                          Hashtbl.replace failed (group_key arr.(i)) reason;
                        if not (Hashtbl.mem failed (group_key arr.(j))) then
                          Hashtbl.replace failed (group_key arr.(j)) reason
                    | None -> ()
                  done
                done;
                let groups =
                  List.sort_uniq compare (List.map group_key accesses)
                in
                let stores = List.filter (fun a -> a.Affine.acc_write) accesses in
                if Hashtbl.length failed = 0 then
                  Proved { pf_groups = List.length groups; pf_stores = List.length stores }
                else
                  let proved_write_groups =
                    List.filter
                      (fun g ->
                        (not (Hashtbl.mem failed g))
                        && List.exists (fun a -> a.Affine.acc_write && group_key a = g) accesses)
                      groups
                  in
                  let failed_groups = List.filter (Hashtbl.mem failed) groups in
                  let first_reason =
                    match failed_groups with
                    | g :: _ -> Hashtbl.find failed g
                    | [] -> "unreachable"
                  in
                  if proved_write_groups = [] then Bail first_reason
                  else
                    (* fission legality: the proved half's stores must not
                       consume values loaded by the residual half *)
                    let residual_loads =
                      List.filter
                        (fun a ->
                          (not a.Affine.acc_write) && Hashtbl.mem failed (group_key a))
                        accesses
                      |> List.map (fun a -> a.Affine.acc_iid)
                      |> Dca_support.Intset.of_list
                    in
                    let taints = store_reads_residual instrs residual_loads in
                    let proved_stores =
                      List.filter
                        (fun (i : Ir.instr) ->
                          match i.Ir.idesc with
                          | Ir.Store _ | Ir.Gstore _ ->
                              List.exists
                                (fun a ->
                                  a.Affine.acc_iid = i.Ir.iid
                                  && a.Affine.acc_write
                                  && List.mem (group_key a) proved_write_groups)
                                accesses
                          | _ -> false)
                        instrs
                    in
                    if List.exists taints proved_stores then
                      Bail
                        (Printf.sprintf "fission blocked: proved store consumes residual load (%s)"
                           first_reason)
                    else
                      Fission
                        {
                          fs_proved = List.length proved_write_groups;
                          fs_residual = List.length failed_groups;
                          fs_reason = first_reason;
                        }))

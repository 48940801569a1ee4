(** Shared checks of the three static baselines (ICC-like, Polly-like,
    Idioms).  Each tool composes these with its own policy. *)

open Dca_analysis
open Dca_ir

(* Calls appearing textually inside the loop. *)
let calls_in fi (l : Loops.loop) =
  Loops.instrs_of fi.Proginfo.fi_cfg l
  |> List.filter_map (fun i ->
         match i.Ir.idesc with Ir.Call (_, name, _) -> Some name | _ -> None)

(* The loop and all loops nested inside it are well-formed counted loops. *)
let rec nest_is_counted fi (l : Loops.loop) =
  Affine.counted_header (Proginfo.affine fi) l
  && List.for_all
       (fun cid ->
         match Loops.find fi.Proginfo.fi_forest cid with
         | Some child -> nest_is_counted fi child
         | None -> false)
       l.Loops.l_children

(* Scalar classification failure: a loop-carried scalar the tool cannot
   handle.  [reductions_ok] filters which reduction ops the tool exploits. *)
let scalar_blocker fi (l : Loops.loop) ~reductions_ok =
  let classes =
    Scalars.classify_loop fi.Proginfo.fi_cfg (Proginfo.affine fi) (Proginfo.live fi) l
  in
  List.find_map
    (fun (vid, cls) ->
      match cls with
      | Scalars.Carried -> Some (Printf.sprintf "loop-carried scalar v%d" vid)
      | Scalars.Reduction op when not (reductions_ok op) ->
          Some (Printf.sprintf "unsupported %s reduction" (Scalars.reduction_op_to_string op))
      | Scalars.Induction | Scalars.Private | Scalars.Reduction _ -> None)
    classes

(* Memory dependence check over the accesses of [l].  Recognized
   reduction read-modify-write pairs are exempted {e pair-wise}: the rmw
   load may conflict with its own store, and the rmw store with itself
   across iterations, but the store still participates in dependence
   tests against every other access (so a wavefront like
   [rhs[i][j] += rhs[i-1][j]] is NOT excused by its same-cell pair). *)
let memory_blocker fi (l : Loops.loop) ~exempt_rmws ~allow_unknown_roots =
  let pairs = Memred.iid_pairs exempt_rmws in
  let stores = List.map snd pairs in
  let exempt_pair (a : Affine.access) (b : Affine.access) =
    let ia = a.Affine.acc_iid and ib = b.Affine.acc_iid in
    List.mem (ia, ib) pairs || List.mem (ib, ia) pairs
    || (ia = ib && List.mem ia stores)
  in
  let accesses = Affine.accesses_of_loop (Proginfo.affine fi) l in
  let unknown = List.find_opt (fun a -> a.Affine.acc_root = Affine.Runknown) accesses in
  match unknown with
  | Some a when not allow_unknown_roots ->
      Some (Printf.sprintf "unanalyzable access at %s" (Dca_frontend.Loc.to_string a.Affine.acc_loc))
  | _ -> (
      match Deptest.loop_has_dependence ~loop_id:l.Loops.l_id ~exempt:exempt_pair accesses with
      | Some (_, _, reason) -> Some ("may-dependence: " ^ reason)
      | None -> None)

let loop_does_io info fi (l : Loops.loop) =
  let pur = Proginfo.purity info in
  List.exists (fun i -> Purity.instr_does_io pur i.Ir.idesc) (Loops.instrs_of fi.Proginfo.fi_cfg l)

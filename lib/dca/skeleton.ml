open Dca_analysis
open Dca_ir

type shape = Map | Reduction of { histogram : bool } | Map_reduce | Worklist

type t = {
  sk_shape : shape;
  sk_pointer_based : bool;
  sk_reductions : (string * Scalars.reduction_op) list;
}

let shape_to_string = function
  | Map -> "map"
  | Reduction { histogram = true } -> "histogram reduction"
  | Reduction { histogram = false } -> "reduction"
  | Map_reduce -> "map+reduce"
  | Worklist -> "worklist"

(* Does the (possibly promoted) iterator slice chase pointers?  True when
   a slice instruction loads a pointer-typed value that feeds the
   iterator — approximated as: some slice instruction is a [Load] or
   [Gep] whose destination is pointer-typed. *)
let pointer_chasing (fi : Proginfo.func_info) (sep : Iterator_rec.separation) =
  Dca_support.Intset.exists
    (fun iid ->
      match (Pdg.instr (Proginfo.pdg fi) iid).Ir.idesc with
      | Ir.Load (d, _) -> ( match d.Ir.vty with Dca_frontend.Ast.Tptr _ -> true | _ -> false)
      | _ -> false)
    sep.Iterator_rec.sep_slice

let classify info fi (outcome : Commutativity.outcome) =
  let sep = outcome.Commutativity.oc_separation in
  let loop = sep.Iterator_rec.sep_loop in
  let reductions = Dca_parallel.Planner.reductions_of info loop.Loops.l_id in
  let rmws = Memred.find fi.Proginfo.fi_cfg (Proginfo.affine fi) loop in
  let histogram =
    List.exists
      (fun r ->
        match r.Memred.rmw_kind with
        | Memred.Array_cell { subscript = None } -> true
        | _ -> false)
      rmws
  in
  (* payload stores that are not part of a recognized RMW pair *)
  let rmw_iids = List.concat_map (fun (a, b) -> [ a; b ]) (Memred.iid_pairs rmws) in
  let plain_stores =
    Dca_support.Intset.exists
      (fun iid ->
        (not (List.mem iid rmw_iids))
        &&
        match (Pdg.instr (Proginfo.pdg fi) iid).Ir.idesc with
        | Ir.Store _ | Ir.Gstore _ -> true
        | _ -> false)
      sep.Iterator_rec.sep_payload
  in
  let has_reductions = reductions <> [] || rmws <> [] in
  let shape =
    if outcome.Commutativity.oc_promotions > 0 then Worklist
    else if has_reductions && not plain_stores then Reduction { histogram }
    else if has_reductions then Map_reduce
    else Map
  in
  { sk_shape = shape; sk_pointer_based = pointer_chasing fi sep; sk_reductions = reductions }

let to_string t =
  Printf.sprintf "%s%s%s" (shape_to_string t.sk_shape)
    (if t.sk_pointer_based then " over a pointer-linked structure" else "")
    (match t.sk_reductions with
    | [] -> ""
    | rs ->
        " ["
        ^ String.concat ", "
            (List.map (fun (n, op) -> Scalars.reduction_op_to_string op ^ ":" ^ n) rs)
        ^ "]")

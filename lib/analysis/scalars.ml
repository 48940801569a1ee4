open Dca_support
open Dca_ir

type reduction_op = Rsum | Rprod | Rmin | Rmax

type classification = Induction | Private | Reduction of reduction_op | Carried

let reduction_op_to_string = function
  | Rsum -> "+"
  | Rprod -> "*"
  | Rmin -> "min"
  | Rmax -> "max"

(* Does instruction [i] combine variable [vid] with something else (not
   [vid] itself) under a commutative operator? *)
let combine_pattern vid (i : Ir.instr) : reduction_op option =
  let other_side a b =
    match (a, b) with
    | Ir.Ovar v, e when v.Ir.vid = vid -> (
        match e with Ir.Ovar v' when v'.Ir.vid = vid -> None | _ -> Some ())
    | e, Ir.Ovar v when v.Ir.vid = vid -> (
        match e with Ir.Ovar v' when v'.Ir.vid = vid -> None | _ -> Some ())
    | _ -> None
  in
  match i.Ir.idesc with
  | Ir.Bin (_, (Ir.Add | Ir.Fadd), a, b) -> Option.map (fun () -> Rsum) (other_side a b)
  | Ir.Bin (_, (Ir.Sub | Ir.Fsub), Ir.Ovar v, e) when v.Ir.vid = vid -> (
      match e with Ir.Ovar v' when v'.Ir.vid = vid -> None | _ -> Some Rsum)
  | Ir.Bin (_, (Ir.Mul | Ir.Fmul), a, b) -> Option.map (fun () -> Rprod) (other_side a b)
  | Ir.Call (_, ("fmin" | "imin"), [ a; b ]) -> Option.map (fun () -> Rmin) (other_side a b)
  | Ir.Call (_, ("fmax" | "imax"), [ a; b ]) -> Option.map (fun () -> Rmax) (other_side a b)
  | _ -> None

let classify_loop cfg affine liveness (l : Loops.loop) =
  let live_in_header = Liveness.live_in liveness l.Loops.l_header in
  let loop_instrs = Loops.instrs_of cfg l in
  let defined = Liveness.loop_defs liveness l in
  let iv = Affine.induction_var affine l in
  (* unique in-loop definition per variable id *)
  let unique_def =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun i ->
        match Ir.def_of i.Ir.idesc with
        | Some v -> Hashtbl.replace tbl v.Ir.vid (if Hashtbl.mem tbl v.Ir.vid then None else Some i)
        | None -> ())
      loop_instrs;
    fun vid -> Option.join (Hashtbl.find_opt tbl vid)
  in
  (* A reduction update of [vid] is either a direct combine instruction
     defining [vid], or (as lowering emits) [t = combine(vid, e); vid = t].
     Returns the operator and the update group (the instructions whose
     uses of [vid] are legitimate). *)
  let update_group_of (def : Ir.instr) vid : (reduction_op * Ir.instr list) option =
    match combine_pattern vid def with
    | Some op when Ir.def_of def.Ir.idesc |> Option.fold ~none:false ~some:(fun v -> v.Ir.vid = vid)
      ->
        Some (op, [ def ])
    | _ -> (
        match def.Ir.idesc with
        | Ir.Mov (d, Ir.Ovar tmp) when d.Ir.vid = vid -> (
            match unique_def tmp.Ir.vid with
            | Some u -> (
                match combine_pattern vid u with Some op -> Some (op, [ def; u ]) | None -> None)
            | None -> None)
        | _ -> None)
  in
  let classify vid =
    match iv with
    | Some (v, _) when v.Ir.vid = vid -> Induction
    | _ ->
        if not (Intset.mem vid live_in_header) then Private
        else begin
          let defs =
            List.filter
              (fun i ->
                Ir.def_of i.Ir.idesc |> Option.fold ~none:false ~some:(fun v -> v.Ir.vid = vid))
              loop_instrs
          in
          let groups = List.map (fun d -> update_group_of d vid) defs in
          if defs = [] || List.exists (fun g -> g = None) groups then Carried
          else begin
            let ops = List.map (fun g -> fst (Option.get g)) groups in
            let members =
              List.concat_map (fun g -> List.map (fun i -> i.Ir.iid) (snd (Option.get g))) groups
            in
            let uses_elsewhere =
              List.exists
                (fun i ->
                  (not (List.mem i.Ir.iid members))
                  && List.exists (fun v -> v.Ir.vid = vid) (Ir.uses_of i.Ir.idesc))
                loop_instrs
              || Intset.exists
                   (fun b ->
                     List.exists
                       (fun v -> v.Ir.vid = vid)
                       (Ir.term_uses (Cfg.block cfg b).Ir.bterm))
                   l.Loops.l_blocks
            in
            match ops with
            | [] -> Carried
            | first :: rest ->
                if (not uses_elsewhere) && List.for_all (fun o -> o = first) rest then
                  Reduction first
                else Carried
          end
        end
  in
  Intset.fold (fun vid acc -> (vid, classify vid) :: acc) defined [] |> List.rev

open Dca_support
open Dca_ir

module Df = Dataflow.Make (struct
  type t = Intset.t

  let bottom = Intset.empty
  let equal = Intset.equal
  let join = Intset.union
end)

type t = {
  cfg : Cfg.t;
  live_in : Intset.t array;
  live_out : Intset.t array;
  uses : Intset.t array;  (** upward-exposed uses per block *)
  defs : Intset.t array;
  vars : (int, Ir.var) Hashtbl.t;
}

let instr_uses i = List.map (fun v -> v.Ir.vid) (Ir.uses_of i.Ir.idesc)
let instr_def i = Option.map (fun v -> v.Ir.vid) (Ir.def_of i.Ir.idesc)

(* Per-block gen (upward-exposed uses) and kill (defs) sets. *)
let block_summary blk =
  let uses = ref Intset.empty and defs = ref Intset.empty in
  List.iter
    (fun i ->
      List.iter (fun u -> if not (Intset.mem u !defs) then uses := Intset.add u !uses) (instr_uses i);
      match instr_def i with Some d -> defs := Intset.add d !defs | None -> ())
    blk.Ir.instrs;
  List.iter
    (fun v ->
      let u = v.Ir.vid in
      if not (Intset.mem u !defs) then uses := Intset.add u !uses)
    (Ir.term_uses blk.Ir.bterm);
  (!uses, !defs)

let analyze cfg =
  let n = Cfg.nblocks cfg in
  let uses = Array.make n Intset.empty and defs = Array.make n Intset.empty in
  let vars = Hashtbl.create 64 in
  let note_var v = Hashtbl.replace vars v.Ir.vid v in
  Array.iter
    (fun blk ->
      List.iter
        (fun i ->
          List.iter note_var (Ir.uses_of i.Ir.idesc);
          Option.iter note_var (Ir.def_of i.Ir.idesc))
        blk.Ir.instrs;
      List.iter note_var (Ir.term_uses blk.Ir.bterm);
      let u, d = block_summary blk in
      uses.(blk.Ir.bid) <- u;
      defs.(blk.Ir.bid) <- d)
    (Cfg.func cfg).Ir.fblocks;
  let transfer b out = Intset.union uses.(b) (Intset.diff out defs.(b)) in
  let result = Df.backward cfg ~exit:Intset.empty ~transfer in
  (* for backward problems: inputs = at block exit, outputs = at entry *)
  { cfg; live_in = result.Df.outputs; live_out = result.Df.inputs; uses; defs; vars }

let live_in t b = t.live_in.(b)
let live_out t b = t.live_out.(b)

let loop_defs t (l : Loops.loop) =
  Intset.fold (fun b acc -> Intset.union acc t.defs.(b)) l.Loops.l_blocks Intset.empty

let loop_live_exit t (l : Loops.loop) =
  let live_at_exits =
    List.fold_left
      (fun acc (src, target) ->
        ignore src;
        Intset.union acc t.live_in.(target))
      Intset.empty l.Loops.l_exiting
  in
  (* A Ret inside the loop also exposes its operand. *)
  let ret_uses =
    Intset.fold
      (fun b acc ->
        match (Cfg.block t.cfg b).Ir.bterm with
        | Ir.Ret (Some op) -> (
            match Ir.operand_var op with Some v -> Intset.add v.Ir.vid acc | None -> acc)
        | _ -> acc)
      l.Loops.l_blocks Intset.empty
  in
  Intset.union live_at_exits ret_uses

let loop_live_out t (l : Loops.loop) = Intset.inter (loop_defs t l) (loop_live_exit t l)

let var_of_id t id = Hashtbl.find_opt t.vars id

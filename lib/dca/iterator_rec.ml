open Dca_support
open Dca_analysis
open Dca_ir

type phase = Pre | Post

type iface_var = { if_var : Ir.var; if_phase : phase }

type separation = {
  sep_loop : Loops.loop;
  sep_slice : Intset.t;
  sep_payload : Intset.t;
  sep_slice_cbr_blocks : Intset.t;
  sep_mixed_cbr : bool;
  sep_interface : iface_var list;
  sep_ambiguous : Ir.var list;
  sep_slice_def_vids : Intset.t;
}

(* Position of an instruction inside its block. *)
let position_table (fi : Proginfo.func_info) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun blk -> List.iteri (fun k i -> Hashtbl.replace tbl i.Ir.iid (blk.Ir.bid, k)) blk.Ir.instrs)
    (Cfg.func fi.Proginfo.fi_cfg).Ir.fblocks;
  tbl

(* Intra-iteration reachability: which loop blocks can reach which along
   paths that do not take the loop's own back edges.  This is the order in
   which one iteration's instructions can execute, and decides whether the
   payload observes an interface variable before or after the iterator's
   in-body update. *)
let body_reachability cfg (l : Loops.loop) =
  let reach = Hashtbl.create 16 in
  Intset.iter
    (fun src ->
      let seen = ref Intset.empty in
      let rec visit b =
        List.iter
          (fun s ->
            let is_back_edge = List.mem b l.Loops.l_latches && s = l.Loops.l_header in
            if Intset.mem s l.Loops.l_blocks && (not is_back_edge) && not (Intset.mem s !seen)
            then begin
              seen := Intset.add s !seen;
              visit s
            end)
          (Cfg.succs cfg b)
      in
      visit src;
      Hashtbl.replace reach src !seen)
    l.Loops.l_blocks;
  fun a b -> match Hashtbl.find_opt reach a with Some s -> Intset.mem b s | None -> false

let loop_instrs fi (l : Loops.loop) = Loops.instrs_of fi.Proginfo.fi_cfg l

let build fi (l : Loops.loop) (slice_nodes : Pdg.Nodeset.t) =
  let pdg = Proginfo.pdg fi in
  let cfg = fi.Proginfo.fi_cfg in
  let slice =
    Pdg.Nodeset.fold
      (fun n acc -> match n with Pdg.Instr iid -> Intset.add iid acc | Pdg.Term _ -> acc)
      slice_nodes Intset.empty
  in
  let instrs = loop_instrs fi l in
  let payload =
    List.fold_left
      (fun acc i -> if Intset.mem i.Ir.iid slice then acc else Intset.add i.Ir.iid acc)
      Intset.empty instrs
  in
  (* classify conditional terminators by who computes their condition *)
  let mixed = ref false in
  let slice_cbr =
    Intset.filter
      (fun b ->
        match (Cfg.block cfg b).Ir.bterm with
        | Ir.Cbr (Ir.Ovar c, _, _) -> begin
            let in_loop_defs =
              List.filter
                (fun n -> Intset.mem (Pdg.node_block pdg n) l.Loops.l_blocks)
                (Pdg.defs_of_var pdg c.Ir.vid)
            in
            let in_slice =
              List.filter (function Pdg.Instr iid -> Intset.mem iid slice | Pdg.Term _ -> false) in_loop_defs
            in
            match (in_loop_defs, in_slice) with
            | [], _ -> false (* loop-invariant condition: payload-evaluated *)
            | defs, sliced when List.length defs = List.length sliced -> true
            | _, [] -> false
            | _, _ ->
                mixed := true;
                true
          end
        | Ir.Cbr ((Ir.Oint _ | Ir.Ofloat _ | Ir.Onull), _, _) -> false
        | Ir.Br _ | Ir.Ret _ -> false)
      l.Loops.l_blocks
  in
  (* all variables defined by slice instructions *)
  let slice_def_vids =
    Intset.fold
      (fun iid acc ->
        match Ir.def_of (Pdg.instr pdg iid).Ir.idesc with
        | Some v -> Intset.add v.Ir.vid acc
        | None -> acc)
      slice Intset.empty
  in
  (* interface: slice-defined variables used by payload instructions or by
     payload-evaluated terminators in the loop *)
  let positions = position_table fi in
  let reaches = body_reachability cfg l in
  let payload_uses_of vid =
    List.filter_map
      (fun i ->
        if
          Intset.mem i.Ir.iid payload
          && List.exists (fun v -> v.Ir.vid = vid) (Ir.uses_of i.Ir.idesc)
        then Hashtbl.find_opt positions i.Ir.iid
        else None)
      instrs
    @ Intset.fold
        (fun b acc ->
          if Intset.mem b slice_cbr then acc
          else
            match (Cfg.block cfg b).Ir.bterm with
            | Ir.Cbr (Ir.Ovar c, _, _) when c.Ir.vid = vid -> (b, max_int) :: acc
            | _ -> acc)
        l.Loops.l_blocks []
  in
  let slice_defs_of vid =
    Intset.fold
      (fun iid acc ->
        match Ir.def_of (Pdg.instr pdg iid).Ir.idesc with
        | Some v when v.Ir.vid = vid -> (
            match Hashtbl.find_opt positions iid with Some p -> p :: acc | None -> acc)
        | _ -> acc)
      slice []
  in
  (* Can the program point (b1, k1) execute before (b2, k2) within one
     iteration?  Same block: by index; different blocks: by body-graph
     reachability with the loop's back edges removed. *)
  let can_precede (b1, k1) (b2, k2) =
    if b1 = b2 then k1 < k2 else reaches b1 b2
  in
  let interface = ref [] and ambiguous = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun i ->
      match Ir.def_of i.Ir.idesc with
      | Some v
        when Intset.mem i.Ir.iid slice && not (Hashtbl.mem seen v.Ir.vid) -> begin
          Hashtbl.replace seen v.Ir.vid ();
          let uses = payload_uses_of v.Ir.vid in
          if uses <> [] then begin
            let defs = slice_defs_of v.Ir.vid in
            let def_before_use = List.exists (fun d -> List.exists (can_precede d) uses) defs in
            let use_before_def = List.exists (fun u -> List.exists (can_precede u) defs) uses in
            match (def_before_use, use_before_def) with
            | false, _ -> interface := { if_var = v; if_phase = Pre } :: !interface
            | true, false -> interface := { if_var = v; if_phase = Post } :: !interface
            | true, true -> ambiguous := v :: !ambiguous
          end
        end
      | _ -> ())
    instrs;
  {
    sep_loop = l;
    sep_slice = slice;
    sep_payload = payload;
    sep_slice_cbr_blocks = slice_cbr;
    sep_mixed_cbr = !mixed;
    sep_interface = List.rev !interface;
    sep_ambiguous = List.rev !ambiguous;
    sep_slice_def_vids = slice_def_vids;
  }

let closure fi (l : Loops.loop) seeds =
  let pdg = Proginfo.pdg fi in
  let within n = Intset.mem (Pdg.node_block pdg n) l.Loops.l_blocks in
  Pdg.backward_closure pdg ~within seeds

let separate fi (l : Loops.loop) =
  let seeds = List.map (fun (src, _) -> Pdg.Term src) l.Loops.l_exiting in
  build fi l (closure fi l seeds)

let widen fi sep ~promote =
  let l = sep.sep_loop in
  let seeds =
    List.map (fun (src, _) -> Pdg.Term src) l.Loops.l_exiting
    @ List.map (fun iid -> Pdg.Instr iid) (Intset.elements (Intset.union promote sep.sep_slice))
  in
  build fi l (closure fi l seeds)

let is_iterator_only sep = Intset.is_empty sep.sep_payload

let describe sep =
  Printf.sprintf "loop %s: slice=%d payload=%d interface=[%s]%s%s" sep.sep_loop.Loops.l_id
    (Intset.cardinal sep.sep_slice) (Intset.cardinal sep.sep_payload)
    (String.concat ", "
       (List.map
          (fun iv ->
            Printf.sprintf "%s:%s" iv.if_var.Ir.vname
              (match iv.if_phase with Pre -> "pre" | Post -> "post"))
          sep.sep_interface))
    (if sep.sep_mixed_cbr then " [mixed-cbr]" else "")
    (if sep.sep_ambiguous <> [] then " [ambiguous-interface]" else "")

open Dca_ir

type node = Instr of int | Term of int

let compare_node a b =
  match (a, b) with
  | Instr x, Instr y -> compare x y
  | Term x, Term y -> compare x y
  | Instr _, Term _ -> -1
  | Term _, Instr _ -> 1

module Nodeset = Set.Make (struct
  type t = node

  let compare = compare_node
end)

type t = {
  cfg : Cfg.t;
  instrs : (int, Ir.instr) Hashtbl.t;
  node_blocks : (node, int) Hashtbl.t;
  defs : (int, node list) Hashtbl.t;  (** var id → defining instr nodes *)
  deps : (node, node list) Hashtbl.t;  (** node → nodes it depends on *)
  cdep_parents : int list array;  (** block → blocks controlling it *)
}

(* Control-dependence parents: block A is control-dependent on B iff B has
   an edge B→s with A post-dominating s but A not post-dominating B.
   Classic construction: for each edge B→s, walk the post-dominator tree
   from s up to (but excluding) ipostdom(B). *)
let control_dependence cfg =
  let pdom, _virtual_exit = Dominance.post_of_cfg cfg in
  let n = Cfg.nblocks cfg in
  let parents = Array.make n [] in
  List.iter
    (fun b ->
      let ipdom_b = Dominance.idom pdom b in
      List.iter
        (fun s ->
          let rec walk a =
            match ipdom_b with
            | Some stop when a = stop -> ()
            | _ ->
                if a < n then begin
                  if not (List.mem b parents.(a)) then parents.(a) <- b :: parents.(a);
                  match Dominance.idom pdom a with
                  | Some up when up <> a -> walk up
                  | _ -> ()
                end
          in
          walk s)
        (Cfg.succs cfg b))
    (Cfg.reverse_postorder cfg);
  parents

let build cfg =
  let instrs = Hashtbl.create 64 in
  let node_blocks = Hashtbl.create 64 in
  let defs = Hashtbl.create 64 in
  let deps = Hashtbl.create 64 in
  let add_def vid node = Hashtbl.replace defs vid (node :: (try Hashtbl.find defs vid with Not_found -> [])) in
  (* First pass: register nodes and variable definitions. *)
  List.iter
    (fun bid ->
      let blk = Cfg.block cfg bid in
      List.iter
        (fun i ->
          Hashtbl.replace instrs i.Ir.iid i;
          Hashtbl.replace node_blocks (Instr i.Ir.iid) bid;
          match Ir.def_of i.Ir.idesc with
          | Some v -> add_def v.Ir.vid (Instr i.Ir.iid)
          | None -> ())
        blk.Ir.instrs;
      Hashtbl.replace node_blocks (Term bid) bid)
    (Cfg.reverse_postorder cfg);
  let cdep_parents = control_dependence cfg in
  let deps_of_uses uses bid =
    let data =
      List.concat_map
        (fun v -> try Hashtbl.find defs v.Ir.vid with Not_found -> [])
        uses
    in
    let control = List.map (fun b -> Term b) cdep_parents.(bid) in
    data @ control
  in
  List.iter
    (fun bid ->
      let blk = Cfg.block cfg bid in
      List.iter
        (fun i ->
          Hashtbl.replace deps (Instr i.Ir.iid) (deps_of_uses (Ir.uses_of i.Ir.idesc) bid))
        blk.Ir.instrs;
      Hashtbl.replace deps (Term bid) (deps_of_uses (Ir.term_uses blk.Ir.bterm) bid))
    (Cfg.reverse_postorder cfg);
  { cfg; instrs; node_blocks; defs; deps; cdep_parents }

let deps_of t node = try Hashtbl.find t.deps node with Not_found -> []

let node_block t node = try Hashtbl.find t.node_blocks node with Not_found -> -1

let instr t iid =
  match Hashtbl.find_opt t.instrs iid with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Pdg.instr: unknown instruction %d" iid)

let defs_of_var t vid = try Hashtbl.find t.defs vid with Not_found -> []

let backward_closure t ~within seeds =
  let result = ref Nodeset.empty in
  let rec visit node =
    if within node && not (Nodeset.mem node !result) then begin
      result := Nodeset.add node !result;
      List.iter visit (deps_of t node)
    end
  in
  List.iter visit seeds;
  !result

let control_parents t bid = t.cdep_parents.(bid)

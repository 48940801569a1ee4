open Dca_support
open Dca_ir

type term = Tiv of string | Tsym of int | Tglob of int

type affine = { coeffs : (term * int) list; const : int }

type root = Rglobal of int | Ralloc of int | Rparam of int | Runknown

type access = {
  acc_iid : int;
  acc_write : bool;
  acc_root : root;
  acc_subscript : affine option;
  acc_loc : Dca_frontend.Loc.t;
}

type t = {
  cfg : Cfg.t;
  forest : Loops.forest;
  defs_by_var : (int, Ir.instr list) Hashtbl.t;
  block_of_iid : (int, int) Hashtbl.t;
  ivs : (string, Ir.var * int) Hashtbl.t;  (** loop id → (iv, step) *)
  param_ids : Intset.t;
}

(* ------------------------------------------------------------------ *)
(* Affine arithmetic                                                   *)
(* ------------------------------------------------------------------ *)

let compare_term a b =
  let rank = function Tiv _ -> 0 | Tsym _ -> 1 | Tglob _ -> 2 in
  match (a, b) with
  | Tiv x, Tiv y -> compare x y
  | Tsym x, Tsym y -> compare x y
  | Tglob x, Tglob y -> compare x y
  | _ -> compare (rank a) (rank b)

let normalize coeffs =
  coeffs
  |> List.sort (fun (t1, _) (t2, _) -> compare_term t1 t2)
  |> List.fold_left
       (fun acc (t, c) ->
         match acc with
         | (t', c') :: rest when compare_term t t' = 0 -> (t', c' + c) :: rest
         | _ -> (t, c) :: acc)
       []
  |> List.rev
  |> List.filter (fun (_, c) -> c <> 0)

let const_affine n = { coeffs = []; const = n }
let term_affine t = { coeffs = [ (t, 1) ]; const = 0 }

let affine_add a b = { coeffs = normalize (a.coeffs @ b.coeffs); const = a.const + b.const }

let affine_scale k a =
  if k = 0 then const_affine 0
  else { coeffs = List.map (fun (t, c) -> (t, k * c)) a.coeffs; const = k * a.const }

let affine_sub a b = affine_add a (affine_scale (-1) b)
let affine_equal a b = a.coeffs = b.coeffs && a.const = b.const

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let defs_in_loop t (l : Loops.loop) vid =
  match Hashtbl.find_opt t.defs_by_var vid with
  | None -> []
  | Some defs ->
      List.filter
        (fun i ->
          match Hashtbl.find_opt t.block_of_iid i.Ir.iid with
          | Some b -> Loops.contains_block l b
          | None -> false)
        defs

let is_loop_invariant t l (v : Ir.var) = (not v.Ir.vglobal) && defs_in_loop t l v.Ir.vid = []

(* Is the global scalar slot stored to anywhere inside the loop? *)
let global_stored_in_loop t (l : Loops.loop) slot =
  Intset.exists
    (fun b ->
      List.exists
        (fun i ->
          match i.Ir.idesc with Ir.Gstore (g, _) -> g.Ir.vslot = slot | _ -> false)
        (Cfg.block t.cfg b).Ir.instrs)
    l.Loops.l_blocks

(* A basic induction variable of [l]: a non-global scalar with exactly one
   in-loop definition of the shape [v = v + c] or [v = v - c].  Lowering
   materializes the update as [t = add v, c; v = t], so the recognizer
   looks through the [Mov] to the unique definition of the temporary. *)
let find_induction t (l : Loops.loop) =
  let add_pattern vid (i : Ir.instr) =
    match i.Ir.idesc with
    | Ir.Bin (_, Ir.Add, Ir.Ovar v, Ir.Oint c) when v.Ir.vid = vid -> Some c
    | Ir.Bin (_, Ir.Add, Ir.Oint c, Ir.Ovar v) when v.Ir.vid = vid -> Some c
    | Ir.Bin (_, Ir.Sub, Ir.Ovar v, Ir.Oint c) when v.Ir.vid = vid -> Some (-c)
    | _ -> None
  in
  let candidates = Hashtbl.create 4 in
  Intset.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Mov (d, Ir.Ovar tmp) -> begin
              match defs_in_loop t l tmp.Ir.vid with
              | [ def ] -> (
                  match add_pattern d.Ir.vid def with
                  | Some c -> Hashtbl.replace candidates d.Ir.vid (d, c)
                  | None -> ())
              | _ -> ()
            end
          | _ -> (
              match Ir.def_of i.Ir.idesc with
              | Some d -> (
                  match add_pattern d.Ir.vid i with
                  | Some c -> Hashtbl.replace candidates d.Ir.vid (d, c)
                  | None -> ())
              | None -> ()))
        (Cfg.block t.cfg b).Ir.instrs)
    l.Loops.l_blocks;
  (* The candidate must have exactly that one in-loop def. *)
  Hashtbl.fold
    (fun vid (v, step) acc ->
      if List.length (defs_in_loop t l vid) = 1 then (v, step) :: acc else acc)
    candidates []

let analyze cfg forest =
  let defs_by_var = Hashtbl.create 64 and block_of_iid = Hashtbl.create 64 in
  Array.iter
    (fun blk ->
      List.iter
        (fun i ->
          Hashtbl.replace block_of_iid i.Ir.iid blk.Ir.bid;
          match Ir.def_of i.Ir.idesc with
          | Some v ->
              Hashtbl.replace defs_by_var v.Ir.vid
                (i :: (try Hashtbl.find defs_by_var v.Ir.vid with Not_found -> []))
          | None -> ())
        blk.Ir.instrs)
    (Cfg.func cfg).Ir.fblocks;
  let param_ids =
    List.fold_left (fun acc v -> Intset.add v.Ir.vid acc) Intset.empty (Cfg.func cfg).Ir.fparams
  in
  let t = { cfg; forest; defs_by_var; block_of_iid; ivs = Hashtbl.create 8; param_ids } in
  List.iter
    (fun l ->
      match find_induction t l with
      | [ (v, step) ] -> Hashtbl.replace t.ivs l.Loops.l_id (v, step)
      | _ :: _ :: _ | [] -> ())
    (Loops.loops forest);
  t

let induction_var t l = Hashtbl.find_opt t.ivs l.Loops.l_id

(* Is [v] the induction variable of [l] or of an enclosing loop? *)
let iv_loop_of t (l : Loops.loop) (v : Ir.var) =
  let path = Loops.nesting_path t.forest l in
  List.find_opt
    (fun anc ->
      match Hashtbl.find_opt t.ivs anc.Loops.l_id with
      | Some (iv, _) -> iv.Ir.vid = v.Ir.vid
      | None -> false)
    path

(* ------------------------------------------------------------------ *)
(* Affine recognition by def-chain walking                             *)
(* ------------------------------------------------------------------ *)

let rec affine_of t l depth (op : Ir.operand) : affine option =
  if depth > 24 then None
  else
    match op with
    | Ir.Oint n -> Some (const_affine n)
    | Ir.Ofloat _ | Ir.Onull -> None
    | Ir.Ovar v -> (
        if v.Ir.vglobal then None
        else
          match iv_loop_of t l v with
          | Some anc -> Some (term_affine (Tiv anc.Loops.l_id))
          | None -> (
              if is_loop_invariant t l v then Some (term_affine (Tsym v.Ir.vid))
              else
                (* a chain variable: must have a unique in-loop def we can
                   look through *)
                match defs_in_loop t l v.Ir.vid with
                | [ i ] -> affine_of_def t l (depth + 1) i
                | _ -> None))

and affine_of_def t l depth (i : Ir.instr) : affine option =
  let recur = affine_of t l depth in
  match i.Ir.idesc with
  | Ir.Mov (_, src) -> recur src
  | Ir.Bin (_, Ir.Add, a, b) -> (
      match (recur a, recur b) with Some x, Some y -> Some (affine_add x y) | _ -> None)
  | Ir.Bin (_, Ir.Sub, a, b) -> (
      match (recur a, recur b) with Some x, Some y -> Some (affine_sub x y) | _ -> None)
  | Ir.Bin (_, Ir.Mul, a, Ir.Oint k) | Ir.Bin (_, Ir.Mul, Ir.Oint k, a) -> (
      match recur a with Some x -> Some (affine_scale k x) | None -> None)
  | Ir.Bin (_, Ir.Mul, a, b) -> (
      (* symbolic * affine is affine only if one side is an invariant symbol
         times a constant-free...: keep it simple and reject *)
      match (recur a, recur b) with
      | Some { coeffs = []; const = k }, Some y -> Some (affine_scale k y)
      | Some x, Some { coeffs = []; const = k } -> Some (affine_scale k x)
      | _ -> None)
  | Ir.Un (_, Ir.Neg, a) -> ( match recur a with Some x -> Some (affine_scale (-1) x) | None -> None)
  | Ir.Gload (_, g) ->
      (* a global scalar never stored to inside the loop is a symbol, and
         the same slot unifies across re-loads (loop bounds like [n]) *)
      if global_stored_in_loop t l g.Ir.vslot then None else Some (term_affine (Tglob g.Ir.vslot))
  | _ -> None

let affine_of_operand t l op = affine_of t l 0 op

(* ------------------------------------------------------------------ *)
(* Address resolution                                                  *)
(* ------------------------------------------------------------------ *)

(* Resolve a pointer operand to (root, affine offset).  Walking is
   function-local and flow-insensitive; any ambiguity yields Runknown. *)
let rec resolve_ptr t l depth (op : Ir.operand) : root * affine option =
  if depth > 24 then (Runknown, None)
  else
    match op with
    | Ir.Onull | Ir.Oint _ | Ir.Ofloat _ -> (Runknown, None)
    | Ir.Ovar v -> (
        if v.Ir.vglobal then (Runknown, None)
        else if Intset.mem v.Ir.vid t.param_ids then (Rparam v.Ir.vid, Some (const_affine 0))
        else
          match Hashtbl.find_opt t.defs_by_var v.Ir.vid with
          | Some [ i ] -> resolve_ptr_def t l depth i
          | Some _ | None -> (Runknown, None))

and resolve_ptr_def t l depth (i : Ir.instr) : root * affine option =
  match i.Ir.idesc with
  | Ir.Gaddr (_, g) -> (Rglobal g.Ir.vslot, Some (const_affine 0))
  | Ir.Alloc (_, _, _) -> (Ralloc i.Ir.iid, Some (const_affine 0))
  | Ir.Gep (_, base, idx, scale) -> (
      let root, base_aff = resolve_ptr t l (depth + 1) base in
      match (base_aff, affine_of t l (depth + 1) idx) with
      | Some b, Some x -> (root, Some (affine_add b (affine_scale scale x)))
      | _ -> (root, None))
  | Ir.Mov (_, src) -> resolve_ptr t l (depth + 1) src
  | Ir.Load _ | Ir.Gload _ | Ir.Call _ -> (Runknown, None)
  | _ -> (Runknown, None)

let accesses_of_loop t (l : Loops.loop) =
  let out = ref [] in
  Intset.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Load (_, ptr) ->
              let root, sub = resolve_ptr t l 0 ptr in
              out :=
                { acc_iid = i.Ir.iid; acc_write = false; acc_root = root; acc_subscript = sub; acc_loc = i.Ir.iloc }
                :: !out
          | Ir.Store (ptr, _) ->
              let root, sub = resolve_ptr t l 0 ptr in
              out :=
                { acc_iid = i.Ir.iid; acc_write = true; acc_root = root; acc_subscript = sub; acc_loc = i.Ir.iloc }
                :: !out
          | Ir.Gload (_, g) ->
              out :=
                {
                  acc_iid = i.Ir.iid;
                  acc_write = false;
                  acc_root = Rglobal g.Ir.vslot;
                  acc_subscript = Some (const_affine 0);
                  acc_loc = i.Ir.iloc;
                }
                :: !out
          | Ir.Gstore (g, _) ->
              out :=
                {
                  acc_iid = i.Ir.iid;
                  acc_write = true;
                  acc_root = Rglobal g.Ir.vslot;
                  acc_subscript = Some (const_affine 0);
                  acc_loc = i.Ir.iloc;
                }
                :: !out
          | _ -> ())
        (Cfg.block t.cfg b).Ir.instrs)
    l.Loops.l_blocks;
  List.rev !out

(* A counted loop: single IV, and the header terminator compares the IV (or
   an affine function of it) against a loop-invariant bound. *)
let counted_header t (l : Loops.loop) =
  match induction_var t l with
  | None -> false
  | Some (iv, _) -> (
      let header = Cfg.block t.cfg l.Loops.l_header in
      match header.Ir.bterm with
      | Ir.Cbr (Ir.Ovar c, _, _) -> (
          match defs_in_loop t l c.Ir.vid with
          | [ { Ir.idesc = Ir.Bin (_, Ir.Cmp _, a, b); _ } ] ->
              (* one side is the IV; the other is affine and invariant in
                 this loop (constants, invariant locals, unstored globals,
                 outer induction variables) *)
              let invariant_bound other =
                match affine_of t l 0 other with
                | Some aff ->
                    List.for_all
                      (fun (term, _) ->
                        match term with
                        | Tiv lid -> lid <> l.Loops.l_id
                        | Tsym _ | Tglob _ -> true)
                      aff.coeffs
                | None -> false
              in
              let side_ok side other =
                (match side with Ir.Ovar v -> v.Ir.vid = iv.Ir.vid | _ -> false)
                && invariant_bound other
              in
              side_ok a b || side_ok b a
          | _ -> false)
      | _ -> false)

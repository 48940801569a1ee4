open Ir

type t = {
  f : func;
  succs : int list array;
  preds : int list array;
  reachable : bool array;
  rpo : int list;
}

let compute_reachable f succs =
  let n = Array.length f.fblocks in
  let seen = Array.make n false in
  let rec visit b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter visit succs.(b)
    end
  in
  visit f.fentry;
  seen

let compute_rpo f succs reachable =
  let n = Array.length f.fblocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec visit b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter visit succs.(b);
      order := b :: !order
    end
  in
  visit f.fentry;
  List.filter (fun b -> reachable.(b)) !order

let of_func f =
  let n = Array.length f.fblocks in
  let succs = Array.make n [] and preds = Array.make n [] in
  Array.iter
    (fun blk ->
      let ss = term_succs blk.bterm in
      succs.(blk.bid) <- ss)
    f.fblocks;
  let reachable = compute_reachable f succs in
  Array.iteri
    (fun b ss -> if reachable.(b) then List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  { f; succs; preds; reachable; rpo = compute_rpo f succs reachable }

let func t = t.f
let nblocks t = Array.length t.f.fblocks
let succs t b = t.succs.(b)
let preds t b = t.preds.(b)
let reachable t = t.reachable
let entry t = t.f.fentry
let reverse_postorder t = t.rpo
let postorder t = List.rev t.rpo

let exit_blocks t =
  List.filter
    (fun b -> match t.f.fblocks.(b).bterm with Ret _ -> true | Br _ | Cbr _ -> false)
    t.rpo

let block t b = t.f.fblocks.(b)

open Dca_support
open Dca_ir

type loop = {
  l_id : string;
  l_func : string;
  l_header : int;
  l_blocks : Intset.t;
  l_latches : int list;
  l_exiting : (int * int) list;
  l_depth : int;
  l_parent : string option;
  mutable l_children : string list;
  l_loc : Dca_frontend.Loc.t;
  l_member : Bytes.t;
}

(* [headers] is indexed by block id: the loop a block heads, if any. *)
type forest = { by_id : (string, loop) Hashtbl.t; headers : loop option array; ordered : loop list }

let loop_id fname header = Printf.sprintf "%s#%d" fname header

(* Blocks of the natural loop of back edge [latch → header]: reverse
   reachability from the latch without crossing the header. *)
let natural_loop_blocks cfg header latch =
  let body = ref (Intset.add header (Intset.singleton latch)) in
  let rec go b =
    List.iter
      (fun p ->
        if not (Intset.mem p !body) then begin
          body := Intset.add p !body;
          go p
        end)
      (Cfg.preds cfg b)
  in
  if latch <> header then go latch;
  !body

let analyze cfg =
  let dom = Dominance.of_cfg cfg in
  let fname = (Cfg.func cfg).Ir.fname in
  (* collect back edges grouped by header *)
  let back_edges = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if Dominance.dominates dom s b then
            Hashtbl.replace back_edges s (b :: (try Hashtbl.find back_edges s with Not_found -> [])))
        (Cfg.succs cfg b))
    (Cfg.reverse_postorder cfg);
  let headers = Hashtbl.fold (fun h _ acc -> h :: acc) back_edges [] |> List.sort compare in
  let raw =
    List.map
      (fun header ->
        let latches = List.rev (Hashtbl.find back_edges header) in
        let blocks =
          List.fold_left
            (fun acc latch -> Intset.union acc (natural_loop_blocks cfg header latch))
            Intset.empty latches
        in
        let exiting =
          Intset.fold
            (fun b acc ->
              List.fold_left
                (fun acc s -> if Intset.mem s blocks then acc else (b, s) :: acc)
                acc (Cfg.succs cfg b))
            blocks []
          |> List.rev
        in
        (header, latches, blocks, exiting))
      headers
  in
  (* nesting: loop A contains loop B iff A's blocks ⊇ B's blocks and A ≠ B.
     The parent is the smallest strict superset. *)
  let parent_of header blocks =
    let candidates =
      List.filter
        (fun (h', _, blocks', _) ->
          h' <> header && Intset.subset blocks blocks' && Intset.mem header blocks')
        raw
    in
    match
      List.sort (fun (_, _, b1, _) (_, _, b2, _) -> compare (Intset.cardinal b1) (Intset.cardinal b2)) candidates
    with
    | (h', _, _, _) :: _ -> Some h'
    | [] -> None
  in
  let nblocks = Cfg.nblocks cfg in
  let by_id = Hashtbl.create 8 and headers = Array.make nblocks None in
  let depth_memo = Hashtbl.create 8 in
  let parent_tbl = Hashtbl.create 8 in
  List.iter
    (fun (header, _, blocks, _) ->
      match parent_of header blocks with
      | Some p -> Hashtbl.replace parent_tbl header p
      | None -> ())
    raw;
  let rec depth_of header =
    match Hashtbl.find_opt depth_memo header with
    | Some d -> d
    | None ->
        let d =
          match Hashtbl.find_opt parent_tbl header with
          | Some p -> 1 + depth_of p
          | None -> 1
        in
        Hashtbl.replace depth_memo header d;
        d
  in
  let loops =
    List.map
      (fun (header, latches, blocks, exiting) ->
        let parent = Hashtbl.find_opt parent_tbl header in
        let l =
          {
            l_id = loop_id fname header;
            l_func = fname;
            l_header = header;
            l_blocks = blocks;
            l_latches = latches;
            l_exiting = exiting;
            l_depth = depth_of header;
            l_parent = Option.map (loop_id fname) parent;
            l_children = [];
            l_loc = (Cfg.block cfg header).Ir.bloc;
            l_member =
              (let m = Bytes.make nblocks '\000' in
               Intset.iter (fun b -> Bytes.set m b '\001') blocks;
               m);
          }
        in
        Hashtbl.replace by_id l.l_id l;
        headers.(header) <- Some l;
        l)
      raw
  in
  List.iter
    (fun l ->
      match l.l_parent with
      | Some pid ->
          let p = Hashtbl.find by_id pid in
          p.l_children <- p.l_children @ [ l.l_id ]
      | None -> ())
    loops;
  let ordered = List.sort (fun a b -> compare (a.l_depth, a.l_header) (b.l_depth, b.l_header)) loops in
  { by_id; headers; ordered }

let loops forest = forest.ordered
let find forest id = Hashtbl.find_opt forest.by_id id
let loop_of_header forest h = if h >= 0 && h < Array.length forest.headers then forest.headers.(h) else None

let contains_block l b = b >= 0 && b < Bytes.length l.l_member && Bytes.unsafe_get l.l_member b <> '\000'

let innermost_containing forest b =
  List.fold_left
    (fun best l ->
      if contains_block l b then
        match best with
        | Some bl when bl.l_depth >= l.l_depth -> best
        | _ -> Some l
      else best)
    None forest.ordered

let top_level forest = List.filter (fun l -> l.l_parent = None) forest.ordered

let instrs_of cfg l =
  Intset.fold (fun b acc -> acc @ (Cfg.block cfg b).Ir.instrs) l.l_blocks []

let nesting_path forest l =
  let rec go acc l = match l.l_parent with
    | Some pid -> (match find forest pid with Some p -> go (l :: acc) p | None -> l :: acc)
    | None -> l :: acc
  in
  go [] l

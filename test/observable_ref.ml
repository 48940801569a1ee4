(* Reference implementation of Dca_interp.Observable kept for
   differential testing: the cell-based digest, which converts every
   captured value into a [cell] of its own and renames blocks through a
   hash table.  test_interp checks that the box-sharing digest gives the
   same [equal] and [matches] answers as this module.  Apart from this
   comment and the [open Dca_interp] below, the file is the module's
   source verbatim. *)

open Dca_interp

type cell =
  | CInt of int
  | CFloat of float
  | CPtr of int * int  (** canonical block id, offset *)
  | CNull
  | CUndef

(* Captures are flat arrays (not lists): the dynamic stage builds and
   compares one digest per schedule replay, so construction and the
   equality walk are hot.  [obs_hash] summarizes every exactly-compared
   ingredient — cell tags, int/pointer payloads, scalar count and
   per-block lengths, but NOT float payloads (those compare with a
   relative tolerance) — so digests of genuinely different states are
   told apart by one integer comparison before any cell walk. *)
type t = { obs_scalars : cell array; obs_blocks : cell array array; obs_hash : int }

let hash_mix h k = (h * 0x01000193) lxor k

let hash_cell h = function
  | CInt n -> hash_mix (hash_mix h 1) n
  | CFloat _ -> hash_mix h 2  (* eps-tolerant payload: tag only *)
  | CPtr (b, o) -> hash_mix (hash_mix (hash_mix h 3) b) o
  | CNull -> hash_mix h 4
  | CUndef -> hash_mix h 5

let hash_cells h cells =
  let h = ref (hash_mix h (Array.length cells)) in
  for i = 0 to Array.length cells - 1 do
    h := hash_cell !h cells.(i)
  done;
  !h

(* Canonicalize: BFS over blocks from the roots, assigning canonical ids in
   first-visit order.  The visit order is deterministic because scalars and
   roots come in fixed order and cells are scanned left to right. *)
let capture st ~scalars ~roots =
  let canon = Hashtbl.create 64 in
  let queue = Queue.create () in
  let next_id = ref 0 in
  let canon_of_block b =
    match Hashtbl.find_opt canon b with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace canon b id;
        Queue.add b queue;
        id
  in
  let cell_of_value = function
    | Value.VInt n -> CInt n
    | Value.VFloat f -> CFloat f
    | Value.VNull -> CNull
    | Value.VUndef -> CUndef
    | Value.VPtr (b, o) ->
        if Store.block_size st b = None then (* dangling after a restore *) CUndef
        else CPtr (canon_of_block b, o)
  in
  let obs_scalars = Array.of_list (List.map cell_of_value (scalars @ roots)) in
  let blocks_rev = ref [] in
  let n_blocks = ref 0 in
  let rec drain () =
    if not (Queue.is_empty queue) then begin
      let b = Queue.take queue in
      let cells =
        match Store.block_cells st b with
        | Some live -> Array.map cell_of_value live
        | None -> [||]
      in
      blocks_rev := cells :: !blocks_rev;
      incr n_blocks;
      drain ()
    end
  in
  drain ();
  let obs_blocks = Array.make !n_blocks [||] in
  List.iteri (fun k cells -> obs_blocks.(!n_blocks - 1 - k) <- cells) !blocks_rev;
  let h = hash_cells (hash_mix 0x811c9dc5 (Array.length obs_scalars)) obs_scalars in
  let h = Array.fold_left hash_cells (hash_mix h !n_blocks) obs_blocks in
  { obs_scalars; obs_blocks; obs_hash = h }

let float_close eps a b =
  a = b
  || Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let cell_equal eps a b =
  match (a, b) with
  | CFloat x, CFloat y -> float_close eps x y
  | CInt x, CInt y -> x = y
  | CPtr (b1, o1), CPtr (b2, o2) -> b1 = b2 && o1 = o2
  | CNull, CNull | CUndef, CUndef -> true
  | _ -> false

(* Cell-wise walk with early exit on the first mismatch. *)
let cells_equal eps c1 c2 =
  Array.length c1 = Array.length c2
  &&
  let rec go i = i >= Array.length c1 || (cell_equal eps c1.(i) c2.(i) && go (i + 1)) in
  go 0

(* The prefilter is a sound inequality test: captures that compare equal
   agree on every non-float ingredient, hence on the hash — so differing
   hashes (or counts, or lengths) decide "not equal" without walking a
   single cell.  Equal hashes still need the eps-aware walk. *)
let equal ?(eps = 1e-9) t1 t2 =
  t1.obs_hash = t2.obs_hash
  && Array.length t1.obs_scalars = Array.length t2.obs_scalars
  && Array.length t1.obs_blocks = Array.length t2.obs_blocks
  && cells_equal eps t1.obs_scalars t2.obs_scalars
  &&
  let rec go i =
    i >= Array.length t1.obs_blocks
    || (cells_equal eps t1.obs_blocks.(i) t2.obs_blocks.(i) && go (i + 1))
  in
  go 0

(* In-place comparison: walk the live store in the exact traversal order
   {!capture} uses and compare cell-by-cell against a previously captured
   digest, without materializing a second capture.  This is the replay hot
   path — a schedule replay only ever asks "does the state I left behind
   match the golden digest?", and building a full capture for that answer
   allocates (and promotes, since the digest is live across the walk) tens
   of KW per replay.  The walk allocates only the canonical-renaming table.

   Equivalence with [equal (capture st ...) golden]: both traverse scalars
   then queued blocks in first-visit order, so when every compared cell
   agrees the canonical numbering of the live heap coincides with the
   golden's and the two are isomorphic; on the first disagreement —
   payload, block count, or block length — the result is [false] exactly
   where the digest comparison would have found differing cells. *)
let matches ?(eps = 1e-9) golden st ~scalars ~roots =
  let canon = Hashtbl.create 64 in
  let queue = Queue.create () in
  let next_id = ref 0 in
  let canon_of_block b =
    match Hashtbl.find_opt canon b with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace canon b id;
        Queue.add b queue;
        id
  in
  let value_matches cell v =
    match (cell, v) with
    | CInt n, Value.VInt m -> n = m
    | CFloat x, Value.VFloat y -> float_close eps x y
    | CNull, Value.VNull -> true
    | CUndef, Value.VUndef -> true
    | CUndef, Value.VPtr (b, _) -> Store.block_size st b = None  (* dangling *)
    | CPtr (cb, co), Value.VPtr (b, o) ->
        co = o && Store.block_size st b <> None && canon_of_block b = cb
    | _ -> false
  in
  let rec scalars_match i = function
    | [] -> i = Array.length golden.obs_scalars
    | v :: rest ->
        i < Array.length golden.obs_scalars
        && value_matches golden.obs_scalars.(i) v
        && scalars_match (i + 1) rest
  in
  let scalars_ok = scalars_match 0 (scalars @ roots) in
  let block_matches cells id =
    id < Array.length golden.obs_blocks
    &&
    let gold = golden.obs_blocks.(id) in
    Array.length gold = Array.length cells
    &&
    let rec go i = i >= Array.length cells || (value_matches gold.(i) cells.(i) && go (i + 1)) in
    go 0
  in
  let rec drain id =
    if Queue.is_empty queue then id = Array.length golden.obs_blocks
    else
      let b = Queue.take queue in
      (match Store.block_cells st b with Some live -> block_matches live id | None -> false)
      && drain (id + 1)
  in
  scalars_ok && drain 0

let size t =
  Array.length t.obs_scalars + Array.fold_left (fun acc c -> acc + Array.length c) 0 t.obs_blocks

let cell_to_string = function
  | CInt n -> string_of_int n
  | CFloat f -> Printf.sprintf "%.12g" f
  | CPtr (b, o) -> Printf.sprintf "&%d.%d" b o
  | CNull -> "null"
  | CUndef -> "undef"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "scalars: ";
  Buffer.add_string buf (String.concat ", " (List.map cell_to_string (Array.to_list t.obs_scalars)));
  Array.iteri
    (fun i cells ->
      Buffer.add_string buf (Printf.sprintf "\nblock %d: " i);
      Buffer.add_string buf (String.concat ", " (Array.to_list (Array.map cell_to_string cells))))
    t.obs_blocks;
  Buffer.contents buf

let outputs_equal ?(eps = 1e-9) a b =
  let line_equal x y =
    x = y
    ||
    match (float_of_string_opt x, float_of_string_opt y) with
    | Some fx, Some fy -> float_close eps fx fy
    | _ -> false
  in
  List.length a = List.length b && List.for_all2 line_equal a b

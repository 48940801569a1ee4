open Value

(* A capture holds values, not cells of its own: the scalars and roots,
   then every reachable block in first-visit order, each a copy of the
   store's cells array.  The copy shares the store's immutable [Value.t]
   boxes; only a pointer cell is rewritten, to its canonical block id
   (and kept as is when the ids agree), and a dangling pointer to
   [VUndef].  A cell that no later run writes therefore stays the very
   box the capture holds, which is what lets {!matches} settle it with
   one physical comparison. *)
type t = { obs_scalars : Value.t array; obs_blocks : Value.t array array }

(* The canonical renaming of one walk: blocks are numbered in first-visit
   order, and [w_order] lists them by canonical id.  The tables are
   indexed by block id and reused by every walk of the domain: an entry
   belongs to the current walk when its stamp is the walk's, so a walk
   costs what it visits, not the heap's size. *)
type walk = {
  mutable w_stamp : int;
  mutable w_seen : int array;  (** by block id: the stamp of the walk that numbered it *)
  mutable w_canon : int array;  (** by block id: its canonical id in that walk *)
  mutable w_order : int array;  (** by canonical id: the block *)
  mutable w_count : int;
}

let walk_key =
  Domain.DLS.new_key (fun () ->
      { w_stamp = 0; w_seen = [||]; w_canon = [||]; w_order = Array.make 64 0; w_count = 0 })

let start_walk st =
  let w = Domain.DLS.get walk_key in
  let n = Store.heap_blocks st in
  if Array.length w.w_seen < n then begin
    let cap = max n (2 * Array.length w.w_seen) in
    w.w_seen <- Array.make cap 0;
    w.w_canon <- Array.make cap 0
  end;
  w.w_stamp <- w.w_stamp + 1;
  w.w_count <- 0;
  w

(* The canonical id of the live block [b], numbering it if the walk has
   not met it yet. *)
let canon_of w b =
  if w.w_seen.(b) = w.w_stamp then w.w_canon.(b)
  else begin
    let id = w.w_count in
    if id = Array.length w.w_order then begin
      let order = Array.make (2 * id) 0 in
      Array.blit w.w_order 0 order 0 id;
      w.w_order <- order
    end;
    w.w_seen.(b) <- w.w_stamp;
    w.w_canon.(b) <- id;
    w.w_order.(id) <- b;
    w.w_count <- id + 1;
    id
  end

let dangling st b = Store.block_size st b = None

(* Capture: the walk visits blocks breadth-first from the roots.  The
   visit order is deterministic because scalars and roots come in fixed
   order and cells are scanned left to right. *)
let capture st ~scalars ~roots =
  let w = start_walk st in
  let canonical v =
    match v with
    | VPtr (b, o) ->
        if dangling st b then (* dangling after a restore *) VUndef
        else
          let c = canon_of w b in
          if c = b then v else VPtr (c, o)
    | v -> v
  in
  let obs_scalars = Array.make (List.length scalars + List.length roots) VUndef in
  List.iteri (fun i v -> obs_scalars.(i) <- canonical v) (scalars @ roots);
  let blocks = ref (Array.make 16 [||]) in
  let k = ref 0 in
  while !k < w.w_count do
    let cells =
      match Store.block_cells st w.w_order.(!k) with Some live -> Array.copy live | None -> [||]
    in
    for i = 0 to Array.length cells - 1 do
      match cells.(i) with VPtr _ as v -> cells.(i) <- canonical v | _ -> ()
    done;
    if !k = Array.length !blocks then begin
      let bigger = Array.make (2 * !k) [||] in
      Array.blit !blocks 0 bigger 0 !k;
      blocks := bigger
    end;
    !blocks.(!k) <- cells;
    incr k
  done;
  { obs_scalars; obs_blocks = Array.sub !blocks 0 !k }

let float_close eps a b =
  a = b
  || Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let value_equal eps a b =
  match (a, b) with
  | VFloat x, VFloat y -> float_close eps x y
  | VInt x, VInt y -> x = y
  | VPtr (b1, o1), VPtr (b2, o2) -> b1 = b2 && o1 = o2
  | VNull, VNull | VUndef, VUndef -> true
  | _ -> false

(* In-place comparison: walk the live store in the exact traversal order
   {!capture} uses and compare cell-by-cell against a previously captured
   digest, without materializing a second capture.  This is the replay hot
   path — a schedule replay only ever asks "does the state I left behind
   match the golden digest?".  A non-pointer cell that neither run wrote
   is still the box the digest holds, so one physical comparison settles
   it (a NaN excepted: it differs from itself); only cells that differ
   physically, and pointers, whose canonical ids depend on this walk, go
   to the value compare.

   Equivalence with comparing [golden] against a capture of the live
   state cell by cell: both traverse scalars then queued blocks in
   first-visit order, so when every compared cell agrees the canonical
   numbering of the live heap coincides with the golden's and the two
   are isomorphic; on the first disagreement — payload, block count, or
   block length — the result is [false] exactly where that cell-wise
   comparison would have found differing cells. *)
let matches ~eps golden st ~scalars ~roots =
  let w = start_walk st in
  let value_matches g v =
    match v with
    | VPtr (b, o) -> (
        match g with
        | VPtr (cb, co) -> co = o && (not (dangling st b)) && canon_of w b = cb
        | VUndef -> dangling st b
        | _ -> false)
    | VFloat x when g == v -> x = x
    | _ -> g == v || value_equal eps g v
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
    if id = w.w_count then id = Array.length golden.obs_blocks
    else
      (match Store.block_cells st w.w_order.(id) with Some live -> block_matches live id | None -> false)
      && drain (id + 1)
  in
  scalars_ok && drain 0

let outputs_equal ~eps a b =
  let line_equal x y =
    x = y
    ||
    match (float_of_string_opt x, float_of_string_opt y) with
    | Some fx, Some fy -> float_close eps fx fy
    | _ -> false
  in
  List.length a = List.length b && List.for_all2 line_equal a b

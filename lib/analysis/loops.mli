(** Natural-loop detection and the loop-nesting forest.

    A back edge is an edge [b → h] where [h] dominates [b]; the natural
    loop of [h] is the set of blocks that can reach some latch [b] without
    passing through [h].  Loops sharing a header are merged.  The paper's
    analyses all operate on this per-function loop forest. *)

type loop = {
  l_id : string;  (** stable id: "<func>#<header-block>" *)
  l_func : string;
  l_header : int;
  l_blocks : Dca_support.Intset.t;
  l_latches : int list;  (** sources of back edges *)
  l_exiting : (int * int) list;  (** (block in loop, successor outside) edges *)
  l_depth : int;  (** 1 = outermost *)
  l_parent : string option;
  mutable l_children : string list;
  l_loc : Dca_frontend.Loc.t;  (** source location of the header block *)
  l_member : Bytes.t;
      (** one byte per block id of the function, nonzero for the blocks of
          [l_blocks]: the table {!contains_block} reads *)
}

type forest

val analyze : Dca_ir.Cfg.t -> forest

val loops : forest -> loop list
(** All loops of the function, outermost first (pre-order of the forest,
    then by header id). *)

val find : forest -> string -> loop option

val loop_of_header : forest -> int -> loop option
(** The loop the block heads, read from an array indexed by block id
    that is built with the forest; [None] for any other id, in range or
    not. *)

val innermost_containing : forest -> int -> loop option
(** Innermost loop whose body contains the block. *)

val contains_block : loop -> int -> bool
(** [Intset.mem b l.l_blocks], as one byte read: the dynamic stage and
    the profiler ask it on every block transfer.  [false] for an id
    outside the function's blocks. *)

val top_level : forest -> loop list

val instrs_of : Dca_ir.Cfg.t -> loop -> Dca_ir.Ir.instr list
(** All instructions of the loop's blocks. *)

val nesting_path : forest -> loop -> loop list
(** Chain from outermost ancestor down to the loop itself. *)

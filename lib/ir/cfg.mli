(** Control-flow-graph utilities over {!Ir.func}.

    Block ids are dense indices into [fblocks].  Unreachable blocks (created
    by lowering after [return]/[break]) are reported by {!reachable} and
    excluded from the traversal orders. *)

type t

val of_func : Ir.func -> t

val func : t -> Ir.func
val nblocks : t -> int
val succs : t -> int -> int list
val preds : t -> int -> int list
val reachable : t -> bool array
val entry : t -> int

val reverse_postorder : t -> int list
(** Reachable blocks in reverse postorder (entry first); the canonical
    iteration order for forward dataflow. *)

val postorder : t -> int list

val exit_blocks : t -> int list
(** Reachable blocks terminated by [Ret]. *)

val block : t -> int -> Ir.block

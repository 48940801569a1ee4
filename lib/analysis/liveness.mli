(** Liveness of frame variables (locals, parameters, temporaries).

    Backward may-analysis over variable ids.  On top of the per-block
    facts, the module computes the loop-level sets the paper's analysis is
    built on:

    - {e live-in} of a loop: variables live at the loop header that are
      read inside the loop before being overwritten;
    - {e live-out} of a loop: variables that are (possibly) defined inside
      the loop and live along some exit edge — exactly the scalars whose
      values DCA's live-out verification must compare.

    Global scalars and heap cells are memory, handled dynamically by the
    observable-state digest rather than statically here. *)

type t

val analyze : Dca_ir.Cfg.t -> t

val live_in : t -> int -> Dca_support.Intset.t
(** Variable ids live at block entry. *)

val live_out : t -> int -> Dca_support.Intset.t

val loop_defs : t -> Loops.loop -> Dca_support.Intset.t
(** Variable ids possibly defined by instructions of the loop. *)

val loop_live_exit : t -> Loops.loop -> Dca_support.Intset.t
(** All variables live along some exit edge of the loop (or used by a
    [Ret] that exits the function from inside the loop), whether or not
    the loop defines them.  Pointers among them reach the heap the caller
    can still observe after the loop — the digest roots itself there. *)

val loop_live_out : t -> Loops.loop -> Dca_support.Intset.t
(** Loop-defined variables live along some exit edge of the loop (or used
    by a [Ret] that exits the function from inside the loop):
    [loop_live_exit] restricted to [loop_defs]. *)

val var_of_id : t -> int -> Dca_ir.Ir.var option
(** Recover the variable record from its id (for reporting). *)

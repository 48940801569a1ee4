(** Affine (scalar-evolution-lite) analysis of loop nests.

    Recognizes basic induction variables ([v = v + c] with constant step),
    expresses integer expressions as affine combinations of induction
    variables and loop-invariant symbols by walking def chains, and
    resolves memory-access addresses to a {e root object} plus an affine
    subscript.  This is the machinery behind the Polly-like and ICC-like
    static baselines (paper §V-A): an access that cannot be brought into
    this form defeats them, which is exactly what PLDS traversals do. *)

type term =
  | Tiv of string  (** induction variable of the loop with this id *)
  | Tsym of int  (** loop-invariant variable (by id) *)
  | Tglob of int  (** global scalar (by slot) not stored to inside the loop *)

type affine = { coeffs : (term * int) list;  (** sorted, no zero coefficients *) const : int }

type root =
  | Rglobal of int  (** global slot *)
  | Ralloc of int  (** allocation site (instruction id) *)
  | Rparam of int  (** pointer parameter (variable id) *)
  | Runknown  (** pointer loaded from memory or otherwise untraceable *)

type access = {
  acc_iid : int;
  acc_write : bool;
  acc_root : root;
  acc_subscript : affine option;  (** [None] if not affine *)
  acc_loc : Dca_frontend.Loc.t;
}

type t

val analyze : Dca_ir.Cfg.t -> Loops.forest -> t

val induction_var : t -> Loops.loop -> (Dca_ir.Ir.var * int) option
(** The loop's basic induction variable and its constant step, if the loop
    has exactly one. *)

val is_loop_invariant : t -> Loops.loop -> Dca_ir.Ir.var -> bool
(** No definition of the variable inside the loop. *)

val affine_of_operand : t -> Loops.loop -> Dca_ir.Ir.operand -> affine option
(** Affine form of an integer operand relative to the loop nest containing
    [loop] (induction variables of [loop] and its ancestors appear as
    [Tiv]; variables invariant in [loop] as [Tsym]). *)

val accesses_of_loop : t -> Loops.loop -> access list
(** All heap/global memory accesses (loads and stores) textually inside the
    loop, with resolved roots and subscripts.  Global-scalar accesses are
    included as [Rglobal] with constant subscript 0. *)

val counted_header : t -> Loops.loop -> bool
(** The loop has a single induction variable tested against a
    loop-invariant bound in its header — the "well-formed counted loop"
    precondition of the polyhedral baseline. *)

val affine_equal : affine -> affine -> bool
val affine_sub : affine -> affine -> affine

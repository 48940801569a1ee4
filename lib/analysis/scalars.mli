(** Static classification of the scalars a loop touches, for privatization
    and reduction recognition (paper §IV-C, after Tournavitis et al. and
    Pottenger–Eigenmann).

    - [Induction]: basic induction variable of the loop;
    - [Private]: not live into the header — every iteration writes the
      variable before reading it, so each thread can keep its own copy
      (made [lastprivate] if also live-out);
    - [Reduction op]: a loop-carried scalar whose only in-loop uses are
      recursive updates [v = v op e] for a single commutative [op];
    - [Carried]: any other loop-carried scalar — a genuine cross-iteration
      scalar dependence that blocks dependence-based parallelization. *)

type reduction_op = Rsum | Rprod | Rmin | Rmax

type classification = Induction | Private | Reduction of reduction_op | Carried

val classify_loop :
  Dca_ir.Cfg.t -> Affine.t -> Liveness.t -> Loops.loop -> (int * classification) list
(** Classification of every frame variable defined inside the loop, keyed
    by variable id. *)

val reduction_op_to_string : reduction_op -> string

val combine_pattern : int -> Dca_ir.Ir.instr -> reduction_op option
(** Does the instruction combine the variable (by id) with something else
    under a commutative operator?  Shared with the memory-reduction
    recognizer. *)

(** Exhaustive ground-truth commutativity oracle.

    DCA samples a handful of permutation schedules; the oracle instead
    decides commutativity {e exactly}, for marked loops with at most
    {!max_trip} iterations, by executing the program once per permutation
    of the iteration order and comparing whole-program outputs.  It never
    touches DCA's record/replay machinery: each permutation is realised
    {e syntactically}, by unrolling the canonical marked loop

    {v prints("DCA_FUZZ_LOOP"); for (int i = 0; i < n; i = i + 1) body v}

    into [n] blocks [{ int i = pi(k); body }] in schedule order, then
    re-type-checking, lowering and running the variant through
    {!Dca_interp.Eval}.  Because generated programs print every live-out,
    output equality is live-out state equality — so the oracle and DCA's
    whole-program escalation decide the same property, independently. *)

open Dca_frontend

type spec = {
  sp_index : string;  (** loop variable name *)
  sp_trip : int;  (** static trip count [n] *)
  sp_line : int;  (** source line of the [for] — matches the header block's [l_loc] *)
  sp_for : Ast.stmt;  (** the marked [for] statement itself *)
}

val max_trip : int
(** 7 — the largest trip count whose [n!] sweep the oracle will attempt. *)

val find_marked_loop : Ast.program -> (spec, string) result
(** Locate the statement following the [prints("DCA_FUZZ_LOOP")] marker in
    [main]'s top-level body and check it has the canonical counted form. *)

val unroll : Ast.program -> spec -> int array -> Ast.program
(** [unroll prog spec perm] replaces the marked loop with its permuted
    unrolling: block [k] binds the loop variable to [perm.(k)].
    [perm] must be a permutation of [0 .. sp_trip - 1]. *)

val run_outputs :
  ?fuel:int -> input:int list -> Ast.program -> (string list, string) result
(** Type-check, lower and execute; [Error] on a trap, type error or fuel
    exhaustion. *)

type verdict =
  | Commutative  (** every permutation reproduces the golden outputs *)
  | Non_commutative of int array
      (** witness permutation: its outputs differ (or its run traps) *)
  | Unsupported of string  (** trip count over {!max_trip}, golden run failed, … *)

val decide : ?fuel:int -> input:int list -> Ast.program -> spec -> verdict
(** Exhaustive sweep in lexicographic permutation order, stopping at the
    first witness.  Output streams compare with
    {!Dca_interp.Observable.outputs_equal} under DCA's own tolerance
    ([Commutativity.default_config]'s [cc_eps]), so float-reduction
    rounding noise does not masquerade as non-commutativity. *)

val check_witness :
  ?fuel:int ->
  input:int list ->
  Ast.program ->
  spec ->
  int array ->
  [ `Mismatch | `Match | `Error of string ]
(** Re-execute one permutation and report whether it distinguishes the
    golden outputs ([`Mismatch] includes a trapping variant).  Used to
    validate the witness schedule named in a DCA non-commutative verdict. *)

val permutations : int -> int array Seq.t
(** All permutations of [0 .. n-1] in lexicographic order (the identity
    first).  [n] must be at most {!max_trip}. *)

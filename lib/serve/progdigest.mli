(** Content addressing of analysis inputs (DESIGN.md §12).

    The verdict cache keys a loop's verdict on
    [(function closure digest, loop id, run-spec digest, config digest)].
    Digests are computed over the {e lowered IR}'s canonical printer
    text, so formatting-only source changes hash identically while
    anything that moves an instruction does not.  A function's {e closure
    digest} covers its own IR, every function reachable from it through
    calls, and the global table — an edit to one function invalidates
    only that function's loops and the loops of its transitive callers.

    Caveat (documented, deliberate): a loop's dynamic verdict is
    established by running the whole program, so an edit outside the
    loop's call closure can in principle change the invocation context
    the loop is tested under.  The cache accepts this approximation for
    plain entries.  An entry whose outcome used whole-program
    verification is keyed by the whole-program digest too, not
    invalidated by it: {!Vcache} stores it under a key pinned to
    {!program_digest}, so each version of a program finds its own. *)

type t

val of_program : Dca_ir.Ir.program -> t

val program_digest : t -> string
(** Hex digest of the whole lowered program (globals included). *)

val func_digest : t -> string -> string option
(** Hex closure digest of the named function. *)

val spec_digest : Dca_core.Commutativity.run_spec -> string
(** Input stream + fuel + deadline + heap budgets. *)

val config_digest : hierarchical:bool -> ?static:bool -> Dca_core.Commutativity.config -> string
(** Schedule list, tolerance, escalation, invocation budget, promotion
    budget, the hierarchical-exploration flag, and the static fast-path:
    digested as {!Dca_analysis.Staticproof.version} when enabled
    (default) or as ["off"], so verdicts from different prover versions
    — or from [--no-static] runs — never share cache entries. *)

val loop_key :
  t -> config_digest:string -> spec_digest:string -> func:string -> loop_id:string -> string
(** The cache key: hex, filename-safe, 32 characters. *)

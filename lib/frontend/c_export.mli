(** Export a MiniC program as compilable C99.

    The output is the program translated one-to-one (MiniC [float] becomes
    C [double]; [new] becomes [calloc]; builtins become a small static
    runtime preamble whose [hrand]/[drand] reproduce the interpreter's
    generators bit for bit), so a compiled binary prints the same lines the
    interpreter does — the test suite differentially checks this against
    gcc when one is installed.

    [pragmas] maps source lines (of loop statements) to OpenMP pragma
    lines to emit immediately above them, which is how [dca export-c]
    ships DCA's parallelization decisions as real OpenMP code
    (paper §IV-C). *)

val export : ?pragmas:(int * string) list -> Ast.program -> string

val body_declared_names : Ast.program -> line:int -> string list
(** Names declared inside the body of the loop statement starting at the
    given source line.  In the exported C these are block-scoped and hence
    automatically private, so they must not appear in a [private(...)]
    clause. *)

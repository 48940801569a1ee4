(** Whole-program DCA pipeline (paper Fig. 3): a static stage per loop —
    cache lookup, candidate selection, the affine prover — then one
    dynamic commutativity test per remaining loop.  The paper tests one
    loop per program execution (§IV-E); here one execution of the program
    tests every remaining loop ({!Commutativity.test_loops}), with the
    verdicts those separate executions give. *)

type abort_cause =
  | Trap of string  (** a guest trap escaped the harness's own handling *)
  | Fuel  (** instruction budget exhausted (after any retry) *)
  | Deadline  (** wall-clock budget exhausted (after any retry) *)
  | Heap  (** heap growth budget exhausted *)
  | Crash of { exn : string; backtrace : string }
      (** unexpected analyzer exception; the backtrace is carried for
          debugging but never printed into reports (which must stay
          deterministic) *)

type decision =
  | Commutative
  | Non_commutative of string
  | Untestable of string
  | Rejected of Candidate.rejection  (** excluded by the static stage *)
  | Subsumed of string
      (** hierarchical mode only: an enclosing loop (by id) is already
          commutative, so this loop was not tested (paper §IV-E explores
          loops top-down) *)
  | Aborted of { ab_cause : abort_cause; ab_retries : int }
      (** this loop's examine/test raised; the exception was contained at
          the loop boundary and classified, and every other loop still
          ran.  [ab_retries] counts fuel/deadline-escalated retries that
          were consumed before giving up (at most one). *)

val abort_cause_to_string : abort_cause -> string

type provenance =
  | Dynamic  (** verdict from the golden-run + replay stage (or its rejection/abort paths) *)
  | Static
      (** verdict proved by {!Dca_analysis.Staticproof} — no golden run or
          replay was executed for this loop *)

type loop_result = {
  lr_loop : Dca_analysis.Loops.loop;
  lr_label : string;
  lr_decision : decision;
  lr_outcome : Commutativity.outcome option;  (** present when the dynamic stage ran *)
  lr_provenance : provenance;
}

val analyze_program :
  ?config:Commutativity.config ->
  ?spec:Commutativity.run_spec ->
  ?hierarchical:bool ->
  ?static:bool ->
  ?pool:Dca_support.Pool.t ->
  ?lookup:(Dca_analysis.Proginfo.func_info -> Dca_analysis.Loops.loop -> loop_result option) ->
  Dca_analysis.Proginfo.t ->
  loop_result list
(** Results in program order (function order, then outermost-first).

    Each loop first goes through the static stage, in program order: the
    [driver.loop] fault point, {!Candidate.examine}, then the prover.
    The loops left for the dynamic stage are tested together by one
    shared program run ({!Commutativity.test_loops}).

    [?lookup] lets a cache front end (the serve daemon's verdict cache)
    resolve a loop without testing it: consulted before the static
    stage, a [Some result] is used verbatim — it participates in
    hierarchical subsumption like a freshly computed verdict but ticks no
    work counters.  The function must be pure.  Subsumption is decided
    {e before} the lookup, so a cached verdict never resurrects a loop
    the engine would have skipped.

    With [~static:true] (the default), every loop the static candidate
    stage {e accepts} first goes to the {!Dca_analysis.Staticproof}
    prover; a [Proved] loop is decided [Commutative] with [Static]
    provenance and skips the golden run and every replay.  The prover
    runs {e inside} the per-loop containment boundary, after the
    [driver.loop] fault point and after [Candidate.examine] — so
    rejected loops keep their rejections, injected faults fire exactly
    as without the prover, and a prover crash degrades to a bailout that
    falls through to the dynamic stage.  Statically proved loops
    participate in hierarchical subsumption like any other commutative
    verdict.  Cache [?lookup] still runs first: a cached verdict —
    whatever its provenance — short-circuits the prover too.
    [~static:false] ([--no-static]) disables the fast-path for A/B runs;
    verdicts must not change, only [dca.golden-runs]/[dca.replays] work
    and the provenance markers do.

    With [~hierarchical:true] (default [false]), loops nested inside a
    loop already found commutative are not tested and come back
    [Subsumed] — the paper's top-down exploration, which saves dynamic
    test invocations when outer parallelism is preferred anyway.  Loops
    then go through both stages in waves of equal nesting depth, one
    shared run per wave: by the time a wave starts, every ancestor
    verdict is final, so a subsumed loop is skipped before any work is
    done for it.  Without it, all loops form a single wave.

    [?pool] (default: width 1) runs the permuted replays of each tested
    invocation, each on a replica of the entry state, and the
    escalations of a shared run's loops, one task per loop
    ({!Commutativity.test_loops}).  Results are bit-identical at every
    width.

    {b Crash containment}: no exception raised by one loop's static
    stage or dynamic test escapes this function.  Escapes are classified
    into {!abort_cause} and returned as [Aborted] results, and the other
    loops' verdicts are unchanged: a loop whose test raises is restored
    and dropped from the shared run, which goes on for the others.
    Loops whose run ended on the [Fuel] or [Deadline] guard are retried
    together, in one more shared run with 4x-escalated budgets. *)

val analyze_source :
  ?config:Commutativity.config ->
  ?spec:Commutativity.run_spec ->
  ?hierarchical:bool ->
  ?static:bool ->
  ?pool:Dca_support.Pool.t ->
  file:string ->
  string ->
  Dca_analysis.Proginfo.t * loop_result list
(** Convenience: parse, type-check, lower, analyze. *)

val commutative_ids : loop_result list -> string list

val is_commutative : loop_result -> bool

val decision_to_string : decision -> string

(** The dynamic stage of DCA (paper §IV-B): iterator recording, permuted
    re-execution, and live-out verification.

    For each tested dynamic invocation of a candidate loop the engine:

    + snapshots the program state at loop entry;
    + runs the loop once in the original order under instrumentation,
      recording (a) the control-flow path, (b) the interface-variable
      values at every iteration boundary (the "linearized iterator",
      §IV-A3), (c) the live-out digest of the golden execution, and
      (d) which memory locations iterator and payload instructions read
      and write, as four role bits per location in a shadow of the store
      that every golden run of the loop reuses;
    + checks {e memory separability}: payload writes must not feed iterator
      reads or writes (and vice versa).  Worklist idioms — payload pushes
      feeding iterator pops — fail this check at first; the engine then
      records the invocation once more on a replica to find the offending
      instructions (counted in [dca.attribution_runs]), {e promotes} them
      into the iterator slice (closing under the PDG) and retries, which
      is how BFS-style loops from Fig. 2 become testable;
    + re-executes the loop from the snapshot under the identity schedule
      (a self-check of the whole record/replay mechanism — any mismatch
      makes the loop untestable rather than mis-verdicted), then under
      each configured permutation schedule.  A re-execution is an
      {e iterator pass} (slice instructions only, golden control path)
      followed by a {e payload pass} (payload instructions only, one
      iteration per scheduled index, interface variables preset from the
      recording, payload branches evaluated live).  The iterator pass is
      the same under every schedule, so it runs once per invocation, in
      the identity self-check, and every permuted replay starts from a
      replica of the state after it;
    + compares each permuted live-out digest with the golden digest.
      On a strict mismatch the engine optionally {e escalates} to
      whole-program verification: the entire program is re-run with the
      loop permuted in place, and the program's outputs are compared —
      state differences that are not observable downstream (a reordered
      but semantically unordered worklist) do not count as violations.

    Traps or divergence during a {e permuted} replay are evidence of
    non-commutativity (paper §IV-E: "we reliably detect these
    situations"); failures during the golden run or the identity
    self-check make the loop untestable instead. *)

type config = {
  cc_schedules : Schedule.t list;
  cc_eps : float;  (** relative float tolerance of the digest comparison *)
  cc_escalate : bool;  (** whole-program verification on strict mismatch *)
  cc_max_invocations : int;  (** dynamic invocations tested per loop *)
}

val default_config : config
(** Every preset schedule ({!Schedule.presets}), escalation on, four
    tested invocations per loop, and DCA's float tolerance: every other
    consumer of that tolerance — the fuzzer's exhaustive oracle, the
    ablations — reads [cc_eps] from here. *)

val promote_rounds : int
(** Worklist-promotion retries of one tested invocation, written into
    every verdict-cache key's configuration digest. *)

type verdict =
  | Commutative
  | Non_commutative of string
  | Untestable of string

type outcome = {
  oc_verdict : verdict;
  oc_invocations : int;  (** dynamic invocations actually tested *)
  oc_escalated : bool;
  oc_promotions : int;  (** worklist promotion rounds applied *)
  oc_skipped_schedules : int;
      (** schedule replays skipped across all tested invocations because
          the induced permutation was the identity (trip count <= 1) or
          duplicated an earlier schedule's permutation.  Skipping never
          changes the verdict: a skipped duplicate inherits its
          representative's loop-local decision. *)
  oc_golden_runs : int;
      (** loop-local golden recordings (one per separability-widening
          attempt of every tested invocation; whole-program verification
          runs are counted separately by [dca.wp_schedule_runs]) *)
  oc_replays : int;
      (** permuted replays whose decision was consumed, identity
          self-checks included.  The replicas of schedules past a trap
          run but are discarded uncounted, so this total — like every
          field of this record — is identical across worker counts. *)
  oc_replay_steps : int;  (** interpreter instructions those replays executed *)
  oc_separation : Iterator_rec.separation;  (** final (possibly widened) separation *)
  oc_per_invocation : verdict list;
      (** verdict of each tested dynamic invocation, in execution order —
          the raw material for the context-sensitivity the paper leaves as
          future work (§IV-E): a loop commutative in some calling contexts
          and not in others shows up as a mixed list here *)
}

type run_spec = {
  rs_input : int list;
  rs_fuel : int;  (** instruction budget per evaluator *)
  rs_deadline_ns : int option;  (** wall-clock budget per evaluator; [None] = unlimited *)
  rs_heap_words : int option;  (** major-heap growth budget; [None] = unlimited *)
  rs_checkpoint : Dca_interp.Store.checkpoint_mode;
      (** checkpointing strategy of every evaluator the dynamic stage
          builds from this spec; verdicts and work counters are
          identical under both *)
}

val make_run_spec :
  ?fuel:int -> ?deadline_ns:int -> ?heap_words:int -> ?checkpoint:Dca_interp.Store.checkpoint_mode ->
  int list -> run_spec
(** [make_run_spec input] with all resource bounds defaulted (fuel:
    {!Dca_interp.Eval.default_fuel}) —
    prefer this over record literals so new bounds don't ripple.
    [checkpoint] defaults to [Deep] if the [DCA_CHECKPOINT] environment
    variable is ["deep"] when the spec is made, else [Journal]. *)

val default_run_spec : run_spec

val test_loops :
  ?pool:Dca_support.Pool.t ->
  config ->
  Dca_analysis.Proginfo.t ->
  run_spec ->
  (Dca_analysis.Proginfo.func_info * Iterator_rec.separation) list ->
  (outcome, exn * Printexc.raw_backtrace) result list
(** Run the whole program once with every listed loop (distinct loops)
    intercepted, and return each loop's outcome in list order — plus the
    whole-program verification runs of the loops that escalate.

    Each outcome equals what a run of the program with only that loop
    intercepted gives.  At the header of a loop that still needs tested
    invocations the engine tests the invocation with the other loops'
    interceptors silenced, restores the entry state (also when the test
    raises), then runs the loop plainly with every interceptor live, so
    loops nested in it or in its callees are tested in the state of
    their own runs.  Fuel and the wall-clock deadline are charged per
    loop: the plain execution plus the loop's own tests, never a
    sibling's.  A loop whose fuel runs out, in its own tests or in the
    plain execution, is [Untestable "program ran out of fuel"]; a trap
    of the plain program reaches every loop whose run is still going.
    Escalation compares against the shared run's outputs, which are the
    plain program's.

    [Error (e, bt)] carries an exception that ended one loop's run — a
    [Deadline_exceeded] or [Heap_exhausted] guard, an injected fault, an
    analyzer bug — for the caller to classify; the shared run goes on
    for the other loops.  An exception in the plain execution other than
    a trap or fuel exhaustion ends the run of every loop still going
    with it.  An empty list runs nothing.

    [?pool] (default: a width-1 pool, which runs its tasks in order in
    the caller) carries two fan-outs, the same code at every width.
    Every permuted replay of a tested invocation runs on an
    {!Dca_interp.Eval.fork}ed replica of the state after the
    invocation's iterator pass, which the identity self-check runs on
    the loop's own context; a replica starts at the step count it would
    start at if it ran that pass itself, and is first charged the pass's
    instructions, so fuel runs out on the same schedule at the same
    count.  The outcomes are folded in schedule order under the
    sequential rule.  The fold
    charges each replica's instructions to its loop
    ({!Dca_interp.Eval.charge}), so the loop's fuel runs out at the same
    replay as if the replays had run one after another; it re-raises the
    first exception, and a trap ends it.  After the shared run, the pool
    fans out over the loops: each loop's escalation runs its
    whole-program verification runs in schedule order and stops at the
    first that decides.  Verdicts, outcomes and work counters —
    [interp.instructions] included — are bit-identical at every width. *)

val test_loop_inputs :
  ?pool:Dca_support.Pool.t ->
  config ->
  Dca_analysis.Proginfo.t ->
  run_spec list ->
  (Dca_analysis.Proginfo.func_info * Iterator_rec.separation) list ->
  outcome list
(** Combined testing over several workloads (the paper's §V-D future-work
    direction), one shared run per input: a loop is commutative only if
    every input agrees; a single non-commutative input refutes it; inputs
    that never execute the loop contribute nothing.  [run_spec list] must
    be non-empty.  An [Error] of any run is raised, the first in input
    then loop order. *)

val verdict_to_string : verdict -> string

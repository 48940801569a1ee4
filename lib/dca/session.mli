(** The unified entry point of the DCA pipeline.

    A session owns one program (from a source string, a file, or a
    built-in benchmark) together with the analysis configuration and a
    worker-pool width, and exposes every pipeline stage as a {e memoized}
    accessor:

    {v
      source ──▶ ir ──▶ proginfo ──┬──▶ profile ──┐
                                   └──▶ dca_results ──▶ plan
    v}

    Each stage is computed on first access and cached; repeated access
    returns the {e physically equal} value, so downstream consumers (the
    CLI commands, the advisor, the exporters) can be written independently
    without re-running earlier stages.  This replaces the
    compile → proginfo → profile → spec boilerplate previously duplicated
    across every front end.

    With [jobs] > 1 the dynamic stage runs on a {!Dca_support.Pool}
    shared by the session: the permuted replays of each tested invocation
    and the escalations of the tested loops fan out across OCaml domains,
    folded in order — verdicts, reports and work counters are
    bit-identical at every width.  The pool is created lazily on the
    first stage that needs it and released by {!close} (or automatically
    by {!with_session}).  It spawns [jobs - 1] domains.

    {2 Configuring a session}

    All knobs live in one {!Options.t} record built from
    {!Options.default} with [with_*] setters:

    {[
      Session.with_session
        ~options:Session.Options.(default |> with_jobs 4 |> with_hierarchical true)
        origin f
    ]} *)

type origin =
  | Source of { file : string; source : string; input : int list }
      (** a MiniC source string; [file] is used in diagnostics, [input]
          feeds the program's [reads()] stream *)
  | Benchmark of Dca_progs.Benchmark.t  (** a built-in benchmark program *)

(** Session construction options.  Build with {!Options.default} and the
    [with_*] setters. *)
module Options : sig
  type t = {
    jobs : int option;
        (** worker-pool width; [None] defaults to
            {!Dca_support.Pool.default_jobs} (the [DCA_JOBS] environment
            variable, else the recommended domain count) *)
    config : Commutativity.config option;
        (** dynamic-stage configuration; [None] = {!Commutativity.default_config} *)
    spec : Commutativity.run_spec option;
        (** explicit run spec; when set, [deadline_ms]/[heap_words] are
            ignored (the spec already carries its resource bounds) *)
    deadline_ms : int option;
        (** per-invocation wall-clock budget folded into the derived run
            spec *)
    heap_words : int option;
        (** per-invocation major-heap growth budget folded into the
            derived run spec *)
    hierarchical : bool;
        (** explore loops top-down, skipping loops subsumed by a
            commutative ancestor (default [false]) *)
    static : bool;
        (** run the {!Dca_analysis.Staticproof} fast-path before the
            dynamic stage (default [true]); [false] ([--no-static])
            forces every accepted loop through golden+replay for A/B
            comparisons — verdicts must not change, only work counters
            and provenance markers do *)
    telemetry : Dca_support.Telemetry.Ctx.t option;
        (** pin the session to a telemetry context: every stage
            computation runs under it (via
            {!Dca_support.Telemetry.with_ctx}) regardless of the
            caller's ambient, and {!telemetry} reports deltas on it.
            [None] (the default) leaves stages under the caller's
            ambient context — the historical process-global behavior. *)
  }

  val default : t
  val with_jobs : int -> t -> t
  val with_config : Commutativity.config -> t -> t
  val with_spec : Commutativity.run_spec -> t -> t
  val with_deadline_ms : int -> t -> t
  val with_heap_words : int -> t -> t
  val with_hierarchical : bool -> t -> t
  val with_static : bool -> t -> t
  val with_telemetry : Dca_support.Telemetry.Ctx.t -> t -> t

  val of_settings :
    ?jobs:int ->
    ?shuffles:int ->
    ?escalate:bool ->
    ?hierarchical:bool ->
    ?static:bool ->
    ?deadline_ms:int ->
    ?heap_words:int ->
    unit ->
    t
  (** The options of one analysis as a front end states it: the pool
      width, the number of seeded shuffles among the schedules
      ({!Schedule.presets}), whole-program escalation, hierarchical
      exploration, the static fast path, and the deadline and heap
      budgets.  An omitted setting keeps its default ({!default},
      {!Commutativity.default_config}).  Every [dca] command and every
      daemon request build their options here, so [dca analyze] and a
      daemon request with the same settings get the same configuration,
      hence the same verdict-cache keys. *)
end

type t

val create : ?options:Options.t -> origin -> t
(** Build a session from [?options] (default {!Options.default}).

    Creation also arms telemetry from the environment
    ({!Dca_support.Telemetry.init_from_env}: [DCA_TRACE] names a trace
    file and enables spans, [DCA_STATS=1] enables counters and the exit
    summary) and fault injection ([DCA_FAULTS], see
    {!Dca_support.Faultpoint}) unless the embedder configured either
    explicitly first, and records the telemetry baseline {!telemetry}
    deltas are computed against. *)

val load : ?options:Options.t -> string -> (t, string) result
(** Resolve a program argument the way the CLI does: a built-in benchmark
    name from {!Dca_progs.Registry}, else a path to a [.mc] file.
    Options as in {!create}. *)

(** {1 Identity} *)

val name : t -> string
val file : t -> string
val source : t -> string
val input : t -> int list
val jobs : t -> int

(** {1 Resolved configuration} *)

val options : t -> Options.t
(** The options the session was created with. *)

val config : t -> Commutativity.config
val spec : t -> Commutativity.run_spec
val hierarchical : t -> bool

val pool : t -> Dca_support.Pool.t option
(** The session's worker pool, started on first demand: [None] when
    [jobs t <= 1] or after {!close}.  Exposed so embedders that drive
    {!Driver.analyze_program} themselves (the serve daemon's cached
    engine) share the session's domains instead of spawning their own. *)

(** {1 Memoized pipeline stages} *)

val ir : t -> Dca_ir.Ir.program
(** Parse, type-check and lower the source. *)

val proginfo : t -> Dca_analysis.Proginfo.t
(** All static analyses over {!ir}. *)

val profile : t -> Dca_profiling.Depprof.profile
(** One run under a [Control] sink: costs and coverage.  The run
    gets the fuel of the session's run spec, and so does the dependence
    pass that {!Dca_profiling.Depprof.deps_of} runs on first demand. *)

val dca_results : t -> Driver.loop_result list
(** The DCA verdict for every loop, in program order.  Runs on the
    session pool when [jobs > 1]. *)

val plan :
  ?machine:Dca_parallel.Machine.t ->
  ?strategy:Dca_parallel.Planner.strategy ->
  t ->
  Dca_parallel.Plan.t
(** Parallelization plan over the DCA-commutative loops.  The
    default-machine, default-strategy plan is memoized; passing an
    explicit [machine] or [strategy] computes a fresh plan. *)

(** {1 Derived products} *)

val advise : t -> Advisor.advice list
val report : t -> string
(** {!Report.to_string} of {!dca_results}. *)

val telemetry : t -> (string * int) list
(** Counters attributable to {e this} session: the session context's
    {!Dca_support.Telemetry} counters minus their values when the
    session was created (name/delta pairs sorted by name, zero deltas
    elided; empty while counting is disabled).  The session context is
    the one pinned through {!Options.with_telemetry}, else the
    creator's ambient context (the global one by default).  In a
    process running many sessions — the serve daemon — each session
    sees only its own work.  The work-kind deltas ([dca.*],
    [interp.instructions]) are deterministic — bit-identical across
    [jobs] settings and checkpoint modes; the diagnostic ones
    ([store.*]) are not.

    Sequential sessions over one shared context are separable by the
    baseline subtraction alone; {e concurrent} sessions additionally
    need disjoint pinned contexts — with one each, the deltas stay
    exact because nothing else writes into them (the concurrent serve
    daemon relies on this). *)

(** {1 Lifecycle} *)

val close : t -> unit
(** Release the worker pool (if one was started).  Idempotent; the
    memoized stages stay readable after [close], but further stage
    computations run sequentially. *)

val with_session : ?options:Options.t -> origin -> (t -> 'a) -> 'a
(** [create], run, then {!close} (also on exception).  Options as in
    {!create}. *)

val failure_message : exn -> string option
(** The message for an analysis's standard failure modes — a located
    frontend error, a runtime trap, and exhausted fuel, wall-clock
    deadline or heap budget — in the one wording every front end uses
    ([dca analyze], [dca batch], serve error replies); [None] for any
    other exception. *)

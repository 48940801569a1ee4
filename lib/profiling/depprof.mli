(** Dynamic cost, coverage and dependence profiler.

    A profile describes, for every static loop:

    - per-invocation iteration counts and per-iteration costs in executed
      IR instructions — the workload description the simulated multicore
      machine and the parallel planner consume;
    - coverage buckets: executed-instruction counts keyed by the stack of
      dynamically active loops, from which the "sequential coverage" of
      any set of detected loops (Table IV) is computed exactly;
    - the set of {e cross-iteration} dependences observed (RAW / WAR /
      WAW), deduplicated by (kind, reader, writer) instruction pair, with
      a sample location — the raw material of the dependence-profiling and
      DiscoPoP-style baselines (paper §V-A), read through {!deps_of}.

    Loop contexts span function calls: an access performed by a callee is
    attributed to every loop active on the call stack, so loops containing
    calls are profiled correctly.

    {2 Two passes}

    {!profile_program} runs [main] once under a [Control] sink
    ({!Dca_interp.Eval.set_sink}): the evaluator runs its plain code and
    reports only block transfers, calls and returns, so the costs and
    buckets cost about one and a half uninstrumented runs.  (The third
    kind, [Memory], which adds only the heap, global and generator
    events, is golden recording's.)  The dependences come from a second
    run with the same fuel and input, under an [All] sink that keeps
    shadow memory of every register and heap access.  That pass runs on the first {!deps_of} of a loop the profile
    saw, once per profile, and its result is kept: forcing it from several
    domains at once runs it once, the others wait for it.  Every
    dependence pass counts in the work counter
    [profiling.dependence_runs].  The plan,
    [advise], [speedup], [annotate] and [export-c] never read
    dependences, so they never pay for them: on the 24 registry
    programs the cost pass takes about a fifth of the time of the
    dependence pass (DESIGN.md §16 has the measurements).

    {2 Cost model}

    Both passes read the evaluator's step counter, {!Dca_interp.Eval.steps},
    at every control event.  Loop costs and coverage buckets are
    differences of it, taken only where the stack of active loop contexts
    changes (loop entry and exit, back edges, returns).  A block transfer
    costs an array read for the header it may enter
    ({!Dca_analysis.Loops.loop_of_header}), a byte read per context it
    may leave ({!Dca_analysis.Loops.contains_block}), and a physical
    compare of loops on a back edge.  In the dependence
    pass a read or write costs one shadow-memory lookup plus a few integer
    compares per active loop context; a dependence that a location carries
    on every iteration is looked up in the context's dependence table
    once, not on every iteration.  Shadow records live for the whole
    pass: memory grows with the locations touched times the loop-nesting
    depths they are touched at (DESIGN.md §16). *)

type dep_kind = Raw | War | Waw

type dep = {
  d_kind : dep_kind;
  d_write_iid : int;  (** writer instruction id (earlier access for RAW) *)
  d_read_iid : int;  (** reader instruction id; for WAW the later writer *)
  d_loc : Dca_interp.Events.loc;  (** sample location exhibiting the dependence *)
}

type invocation = { inv_iters : int; inv_iter_costs : int array }

type loop_profile = {
  mutable lp_invocations : invocation list;  (** most recent first *)
  mutable lp_total_cost : int;  (** instructions in the loop's dynamic extent *)
  mutable lp_total_iters : int;
}

type dependences
(** The dependence pass of a profile and, once it ran, its result. *)

type profile = {
  pr_loops : (string, loop_profile) Hashtbl.t;  (** keyed by loop id *)
  pr_total_cost : int;  (** all executed instructions *)
  pr_buckets : (string list * int) list;
      (** active-loop-stack → cost, one entry per stack that executed at
          least one instruction; the order of the list is unspecified *)
  pr_deps : dependences;  (** read through {!deps_of} *)
}

val profile_program : ?fuel:int -> ?input:int list -> Dca_analysis.Proginfo.t -> profile
(** Run [main] once under a [Control] sink.  Raises what the run
    raises ({!Dca_interp.Eval.Trap}, {!Dca_interp.Eval.Out_of_fuel}). *)

val loop_profile : profile -> string -> loop_profile option

val coverage_of : profile -> string list -> float
(** Fraction (0–1) of all executed instructions spent inside the dynamic
    extent of at least one of the given loops. *)

val deps_of : profile -> string -> dep list
(** The cross-iteration dependences of a loop, in the order its contexts
    finished, newest first; [[]] for a loop the profile never saw.  The
    first call for a loop the profile saw runs the dependence pass. *)

val dependences :
  ?fuel:int -> ?input:int list -> Dca_analysis.Proginfo.t -> (string, dep list) Hashtbl.t
(** The dependence pass on its own, as {!deps_of} forces it: every loop
    that ran, by loop id, with its dependences.  Also for a run that
    raises, where there is no profile: it raises what the run raises. *)

val dep_kind_to_string : dep_kind -> string

(** Dynamic dependence, cost and coverage profiler.

    One instrumented run of the program (an {!Dca_interp.Events.sink}
    attached to the evaluator) produces, for every static loop:

    - the set of {e cross-iteration} dependences observed (RAW / WAR /
      WAW), deduplicated by (kind, reader, writer) instruction pair, with
      a sample location — the raw material of the dependence-profiling and
      DiscoPoP-style baselines (paper §V-A) and of the privatization /
      reduction planning of the parallelizer (§IV-C);
    - per-invocation iteration counts and per-iteration costs in executed
      IR instructions — the workload description the simulated multicore
      machine consumes;
    - coverage buckets: executed-instruction counts keyed by the stack of
      dynamically active loops, from which the "sequential coverage" of
      any set of detected loops (Table IV) is computed exactly.

    Loop contexts span function calls: an access performed by a callee is
    attributed to every loop active on the call stack, so loops containing
    calls are profiled correctly.

    {2 Cost model}

    An executed instruction costs one counter increment.  Loop costs and
    coverage buckets are differences of that counter, taken only where
    the stack of active loop contexts changes (loop entry and exit, back
    edges, returns).  A read or write costs one shadow-memory lookup plus
    a few integer compares per active loop context; a dependence that a
    location carries on every iteration is looked up in the context's
    dependence table once, not on every iteration.  Shadow records live
    for the whole run: memory grows with the locations touched times the
    loop-nesting depths they are touched at (DESIGN.md §16). *)

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
  mutable lp_deps : dep list;
}

type profile = {
  pr_loops : (string, loop_profile) Hashtbl.t;  (** keyed by loop id *)
  pr_total_cost : int;  (** all executed instructions *)
  pr_buckets : (string list * int) list;
      (** active-loop-stack → cost, one entry per stack that executed at
          least one instruction; the order of the list is unspecified *)
}

val profile_program : ?fuel:int -> ?input:int list -> Dca_analysis.Proginfo.t -> profile
(** Run [main] once under instrumentation. *)

val loop_profile : profile -> string -> loop_profile option

val coverage_of : profile -> string list -> float
(** Fraction (0–1) of all executed instructions spent inside the dynamic
    extent of at least one of the given loops. *)

val deps_of : profile -> string -> dep list

val dep_kind_to_string : dep_kind -> string

(** Shared evaluation pipeline: compile a benchmark, run DCA over every
    loop, profile the workload, and run the five baselines — the raw
    material every table and figure of the paper's evaluation section is
    generated from.  Results are cached per benchmark (the same evaluation
    feeds Tables I, III, IV and Figs. 5–7). *)

type t = {
  ev_bm : Dca_progs.Benchmark.t;
  ev_info : Dca_analysis.Proginfo.t;
  ev_dca : Dca_core.Driver.loop_result list;
  ev_profile : Dca_profiling.Depprof.profile;
  ev_tools : (string * Dca_baselines.Tool.result list) list;
      (** tool name → per-loop verdicts, for all five baselines *)
}

val evaluate : ?config:Dca_core.Commutativity.config -> Dca_progs.Benchmark.t -> t

val evaluate_cached : ?config:Dca_core.Commutativity.config -> Dca_progs.Benchmark.t -> t
(** Memoized by benchmark name (ignores config differences after the first
    call — callers that sweep configs must use {!evaluate}). *)

val total_loops : t -> int
val dca_commutative : t -> string list
val tool_parallel : t -> string -> string list
(** Loop ids a named baseline reports parallel. *)

val combined_static : t -> string list
val expert_loop_ids : t -> string list
val known_sequential_ids : t -> string list
val coverage : t -> string list -> float

val machine : Dca_parallel.Machine.t
(** The simulated 72-core machine every figure uses. *)

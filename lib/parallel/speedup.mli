(** Whole-program speedup accounting on the machine model.

    The simulated parallel program time is the profiled sequential cost
    minus, for each planned loop, the difference between its dynamic
    extent's sequential cost and its simulated parallel makespan (scaled
    over all invocations).  Loops fused into one parallel section
    (whole-program expert plans, Fig. 7) share their launch overheads.
    An optional [extra_parallel (fraction, workers)] models expert
    restructuring beyond loop boundaries — pipelines, work-sharing
    sections — by running that fraction of the remaining serial time on
    the given number of workers. *)

type loop_stats = {
  ls_loop_id : string;
  ls_seq_cost : float;
  ls_par_cost : float;
  ls_saved : float;
}

type result = {
  sp_seq : float;
  sp_par : float;
  sp_speedup : float;
  sp_loops : loop_stats list;
}

val simulate :
  ?extra_parallel:float * int ->
  machine:Machine.t ->
  Dca_analysis.Proginfo.t ->
  Dca_profiling.Depprof.profile ->
  Plan.t ->
  result

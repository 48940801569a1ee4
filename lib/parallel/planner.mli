(** Selection of which detected loops to actually parallelize, and
    construction of their plans (privatization and reduction clauses from
    the static scalar classification, paper §IV-C).

    Two detected loops cannot both be parallelized if one executes inside
    the other at run time (including through calls); the profiler's
    coverage buckets expose exactly this co-occurrence.  Conflicts are
    resolved greedily by estimated benefit on the machine model —
    standing in for the paper's "expert profitability" selection of the
    hottest profitable loops (§V-C2). *)

type strategy =
  | Best_benefit  (** all profitable loops, outermost-win on conflicts *)
  | Among of string list
      (** restrict the choice to these loop ids (expert selections), still
          resolving conflicts by benefit *)

val select :
  machine:Machine.t ->
  Dca_analysis.Proginfo.t ->
  Dca_profiling.Depprof.profile ->
  detected:string list ->
  strategy:strategy ->
  Plan.t

val privates_of : Dca_analysis.Proginfo.t -> string -> string list
(** Names of the scalars a parallelization of the loop must privatize. *)

val reductions_of :
  Dca_analysis.Proginfo.t -> string -> (string * Dca_analysis.Scalars.reduction_op) list
(** Reduction clauses (variable name, operator) of the loop. *)

val parallel_cost :
  machine:Machine.t -> Dca_profiling.Depprof.loop_profile -> reductions:int -> float
(** Simulated parallel cost of the loop's whole dynamic extent, scaled
    from the recorded invocations to the loop's profiled totals. *)

val benefit_of :
  machine:Machine.t -> Dca_analysis.Proginfo.t -> Dca_profiling.Depprof.profile -> string -> float
(** Sequential cost minus simulated parallel cost of the loop's dynamic
    extent (in work units), its reduction clauses' merges included;
    [neg_infinity] for a loop the profile never entered.  {!select}
    plans exactly the loops with a positive benefit that win their
    conflicts, and the advisor calls a loop profitable on the same
    test. *)

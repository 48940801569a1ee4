(** Differential fuzzing driver: generator × oracle × DCA cross-check.

    For every generated program the driver

    + re-parses the printed source and checks the printer/parser round
      trip (drift is reported as a violation — the property tests get the
      same check over the qcheck seeds);
    + decides ground truth with the exhaustive {!Oracle};
    + runs the full DCA pipeline through {!Dca_core.Session} and reads
      the verdict of the marked loop;
    + cross-checks both soundness directions:
      {ul
       {- oracle-all-equal ⇒ DCA must not report non-commutative
          (a [Rejected]/[Untestable] verdict is incompleteness, not
          unsoundness, and is only counted);}
       {- a DCA non-commutative verdict must name a witness schedule whose
          permutation reproduces a live-out mismatch (or trap) in the
          oracle's unrolled re-execution.}}
    + checks the metamorphic invariants: the session report must be
      byte-identical across [jobs 1]/[jobs 4] and across
      [DCA_CHECKPOINT=journal]/[deep].

    Any violation is minimized with {!Shrink} under a predicate that
    reproduces that specific violation, then recorded (and optionally
    written to a corpus directory).  The run and its report are fully
    deterministic functions of (seed, count, max-iters): no wall-clock,
    no global randomness, and the per-program DCA results are themselves
    jobs-invariant. *)

type violation_kind =
  | Roundtrip_drift
  | Generator_invalid
  | False_non_commutative
  | Bogus_witness of string  (** the witness schedule name *)
  | Dca_crash
      (** the DCA pipeline raised an internal exception — or, with crash
          containment, a loop came back [Aborted] with a [Crash] cause *)
  | Jobs_report_divergence
  | Checkpoint_report_divergence
  | Containment_breach
      (** fault-plan mode only: an injected one-loop fault changed
          another loop's verdict, reordered the report, or killed the
          session *)
  | Static_divergence
      (** static-xcheck mode only: a statically proved Commutative whose
          dynamic (prover-off) verdict is non-commutative, any verdict
          perturbed by merely enabling the prover, or a static proof of
          a loop the exhaustive oracle found non-commutative.  A
          [Static] verdict whose dynamic twin is [Untestable] (loop not
          executed) is not a divergence. *)

val violation_kind_to_string : violation_kind -> string

type violation = {
  vi_program : int;  (** index in the generated stream *)
  vi_kind : violation_kind;
  vi_detail : string;
  vi_source : string;  (** shrunk reproducer (original source if shrinking is off) *)
}

type config = {
  fz_seed : int;
  fz_count : int;
  fz_max_iters : int;  (** trip-count bound, clamped to [2 .. Oracle.max_trip] *)
  fz_jobs : int;  (** session jobs of the primary DCA run *)
  fz_metamorphic : bool;
  fz_fault_mode : bool;
      (** for each loop of each program, re-run the session with an
          injected one-shot crash scoped to that loop's test and assert
          containment (victim aborted, siblings byte-identical) *)
  fz_static_xcheck : bool;
      (** run every program with the static fast-path on and off and
          fail on any {!Static_divergence} — the differential harness
          that keeps the prover honest *)
  fz_shrink : bool;
  fz_corpus : string option;  (** write shrunk reproducers here *)
}

val default_config : config
(** seed 42, count 100, max-iters 4, jobs 1, metamorphic and shrinking
    on, fault mode and static-xcheck off, no corpus directory.  The
    oracle compares outputs under DCA's own tolerance. *)

type result = { r_report : string; r_violations : violation list }

val run : config -> result
(** The [r_report] string is deterministic for fixed
    (seed, count, max-iters): identical across [fz_jobs] settings and
    checkpoint modes. *)

type program_outcome = {
  po_oracle : Oracle.verdict;
  po_dca : Dca_core.Driver.decision option;  (** [None]: marked loop not found *)
  po_violations : violation list;  (** unshrunk *)
}

val check_source :
  ?jobs:int ->
  ?metamorphic:bool ->
  ?fault_mode:bool ->
  ?static_xcheck:bool ->
  index:int ->
  string ->
  program_outcome
(** Cross-check a single MiniC source containing a marked loop — the
    corpus-replay entry point used by the test suite. *)

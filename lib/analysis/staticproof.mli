(** Static commutativity fast-path: an affine dependence-distance proof of
    iteration independence, discharging candidate loops without a golden
    run or replays (ROADMAP "Static fast-path"; the specification framing
    follows the separation-logic treatment of iteration-local footprints).

    The proof obligations, conjunctively:

    + the loop is a well-formed counted loop (single induction variable
      with non-zero constant step, loop-invariant bound);
    + every instruction's effects are visible to the affine access
      analysis — no user calls, impure builtins, allocation or I/O;
    + every scalar defined in the loop is an induction variable, a
      dead-on-exit private, or an {e integer} reduction (float reductions
      reassociate inexactly; private-but-live-out scalars carry the last
      iteration's value);
    + every pair of memory accesses involving a write — including a
      write's self-pair — is refuted by {!Deptest.cross_iteration} when
      the roots are identical, and fails outright when distinct roots may
      alias (including any two pointer parameters: a caller may pass the
      same array twice).

    A loop where only some access groups fail is split conservatively:
    if at least one write group is proved and no proved store consumes a
    value loaded by a failing ("residual") group, the result is
    {!Fission} — the verdict still comes from the dynamic stage, but the
    split is surfaced for telemetry and reports.

    The prover is conservative by construction: it may say {!Bail} for a
    commutative loop, never {!Proved} for a non-commutative one.  The
    [dca fuzz --static-xcheck] differential harness enforces exactly
    that. *)

val version : int
(** Prover version, recorded in the serve-cache spec digest: cached
    verdicts proved by an older prover are never replayed by a newer
    binary. *)

type proof =
  | Proved of { pf_groups : int; pf_stores : int }
      (** iteration independence proved for every access group *)
  | Fission of { fs_proved : int; fs_residual : int; fs_reason : string }
      (** a clean split exists but residual groups need the dynamic stage *)
  | Bail of string  (** no proof; the loop enters the dynamic stage whole *)

val prove : Proginfo.t -> Proginfo.func_info -> Loops.loop -> proof
(** Attempt the proof for one loop.  Pure and allocation-light: safe to
    call from pool workers. *)

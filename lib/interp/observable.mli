(** Canonical capture of the observable (live-out) program state.

    DCA's live-out verification (paper §IV-B3) compares the state a loop
    leaves behind under the original iteration order against the state left
    by each permuted execution.  The comparison must be

    - {e address-insensitive}: two heaps that are isomorphic as labelled
      graphs must compare equal even when allocation produced different
      block ids (permuted executions may allocate in different orders);
    - {e transient-insensitive}: only state reachable from the live-out
      roots participates — a dead worklist or the iterator's own chain of
      cells is ignored, which is exactly the "liveness-based" part of the
      paper's commutativity notion;
    - {e rounding-tolerant}: permuting a floating-point reduction changes
      the rounding of the result, so floats compare with a relative
      tolerance rather than bit equality.

    A capture walks the heap from the given roots in deterministic order,
    renames blocks to canonical ids in first-visit order, and records every
    reachable cell.  It records a block as a copy of the store's cells
    array that shares the store's immutable value boxes: only pointers
    are rewritten, to canonical ids, and dangling pointers to undefined.
    A cell no later run writes therefore stays the box the capture
    holds, and {!matches} settles it with one physical comparison.  The
    canonical renaming is a per-domain table indexed by block id, so a
    capture or a comparison allocates only its copies. *)

type t

val capture : Store.t -> scalars:Value.t list -> roots:Value.t list -> t
(** [scalars] are the live-out scalar values in a fixed order (they also
    act as traversal roots when they are pointers); [roots] are additional
    pointer roots (global aggregates, live-out global pointers), also in a
    fixed order. *)

val matches : eps:float -> t -> Store.t -> scalars:Value.t list -> roots:Value.t list -> bool
(** [matches ~eps golden st ~scalars ~roots] holds when the live state
    [capture st ~scalars ~roots] would record equals [golden] cell by
    cell — ints, pointers (canonical ids) and undefined exactly, floats
    within the relative tolerance [eps] — without materializing that
    capture: the live state is walked in capture order and compared
    against [golden], allocating nothing but the argument lists.  A
    non-pointer cell that is physically the box [golden] holds matches
    at once (a NaN excepted); every other cell goes to the value
    comparison.  This
    is the replay hot path — one digest is captured per golden run and
    every schedule replay checks the state it left behind against it. *)

val outputs_equal : eps:float -> string list -> string list -> bool
(** Tolerant comparison of program output streams: lines that both parse
    as numbers compare with relative tolerance, others byte-wise.  Used by
    the whole-program escalation of the verifier. *)

(** The interpreter's mutable program state: the heap, the global table,
    the output stream, the [drand] generator state and the [reads] input
    cursor.  Everything is captured by {!snapshot} and brought back by
    {!restore} — the primitive DCA's dynamic stage uses to re-execute a
    loop from its entry state under different iteration schedules.

    {2 Checkpointing}

    Two interchangeable strategies implement the same snapshot/restore
    contract:

    - [Journal] (the default): {!snapshot} is O(1) — it opens an undo
      journal and a write barrier in {!store}/{!write_global} logs the
      frozen old cells array of each block (old value of each global slot)
      on its first mutation per generation.  {!restore} replays only the
      journal, so its cost is O(blocks dirtied since the snapshot), not
      O(heap).  {!copy} is copy-on-write: the replica shares every cells
      array with the parent and per-block generation stamps make either
      side privatize a block before its first write.
    - [Deep] (the oracle; the dynamic stage selects it with
      [DCA_CHECKPOINT=deep], read when its run spec is made): snapshot,
      restore and copy duplicate the whole heap eagerly — the seed
      implementation, kept as the differential-testing reference.

    Journal snapshots obey a stack discipline: restoring a snapshot
    invalidates every snapshot taken after it, and {!release} must be
    called when a snapshot is no longer needed so the journal (and the
    write barrier) can be retired.

    {2 Statistics}

    Every store counts its own checkpointing traffic in a statistics
    record (plain fields bumped on events that already copy arrays or
    push journal entries — the per-write fast path is untouched):
    snapshots and restores taken, undo-journal entries pushed and the
    journal's peak length, blocks privatized by the write barrier with
    the total cells those copies moved, the deepest nesting of live
    snapshots, privatizations forced by copy-on-write sharing after a
    fork ({e fork watermark hits}), and replicas forked off with
    {!copy}.  {!flush_telemetry} drains the record into the process-wide
    {!Dca_support.Telemetry} diagnostic counters ([store.*]); these are
    diagnostics, not work counters — a parallel run forks replica stores
    and shifts snapshot/restore traffic onto them, so the totals
    legitimately differ across worker counts. *)

type t

type snapshot

type checkpoint_mode = Journal | Deep

val create : ?mode:checkpoint_mode -> Dca_ir.Ir.program -> input:int list -> t
(** Fresh state with globals zero-initialized (or set to their constant
    initializers) and aggregate globals backed by fresh heap blocks.
    [mode] defaults to [Journal]. *)

val alloc : t -> Dca_ir.Layout.cellkind array -> count:int -> int
(** Allocate a block of [count] repetitions of the kind pattern, zero
    initialized; returns the block id. *)

val load : t -> block:int -> off:int -> Value.t
(** Raises [Failure] on a dangling block or out-of-bounds offset. *)

val store : t -> block:int -> off:int -> Value.t -> unit

val block_size : t -> int -> int option

val block_cells : t -> int -> Value.t array option
(** The live cells array of a block, or [None] when the id is dangling.
    Read-only view for bulk scans ({!Observable.capture}): callers must
    not mutate it — writes go through {!store}, which keeps the
    checkpoint journal and copy-on-write sharing sound. *)

val read_global : t -> int -> Value.t
val write_global : t -> int -> Value.t -> unit

val print_value : t -> Value.t -> unit
val print_string_ : t -> string -> unit
val outputs : t -> string list
(** Output lines, oldest first. *)

val drand : t -> float
(** Next value of the stateful generator (xorshift64*, in [0,1)). *)

val dseed : t -> int -> unit
val read_input : t -> int
(** Next integer of the input stream; 0 when exhausted. *)

val snapshot : t -> snapshot
(** O(1) in [Journal] mode; O(heap) in [Deep] mode. *)

val restore : t -> snapshot -> unit
(** Rewind the store to the snapshot's state.  A snapshot can be restored
    any number of times.  In [Journal] mode, raises [Invalid_argument] on
    a released snapshot or one invalidated by restoring an older
    snapshot. *)

val release : t -> snapshot -> unit
(** Declare the snapshot dead: it will not be restored again.  When the
    last live journal snapshot is released the undo journal is cleared
    and the write barrier stops logging.  Idempotent; a no-op in [Deep]
    mode. *)

val copy : t -> t
(** A private replica: mutating the copy never affects the original and
    vice versa, so the copy can be driven by another domain.  In
    [Journal] mode the heap is shared copy-on-write (the parent must be
    quiescent while replicas are being forked, as in the pool's fan-out);
    in [Deep] mode every block is duplicated eagerly.  The (immutable)
    input stream is shared; active snapshots are not inherited. *)

val heap_blocks : t -> int
(** Number of live blocks (diagnostics). *)

(** {1 Statistics} *)

val flush_telemetry : t -> unit
(** Add this store's statistics to the process-wide
    {!Dca_support.Telemetry} diagnostic counters ([store.*] — peaks
    max-merge, the rest sum) and zero the summed fields, so repeated
    flushes only contribute deltas.  No-op while counting is disabled. *)

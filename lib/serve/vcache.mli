(** Two-level content-addressed verdict cache: an in-memory LRU in front
    of an on-disk store that survives daemon restarts (DESIGN.md §12).

    Values are the per-loop [(decision, outcome)] pair plus provenance —
    exactly what {!Dca_core.Report} folds into a summary line and the
    counters footer, so a reply assembled from cache is byte-identical
    to a cold one.  Loop structure (the {!Dca_analysis.Loops.loop}, the
    label) is {e not} cached; it is rebuilt from the fresh static
    analysis of every request.

    An entry whose outcome escalated to whole-program verification
    depends on the whole program, not only on the loop's call closure
    that the loop key covers: it is stored under a key pinned to the
    whole-program digest, so the verdicts of several versions of one
    program live side by side and a version that comes back after an
    edit is served again.  Every other entry is served to any program
    its loop key matches.

    On-disk entries carry a payload digest: any corruption (torn write,
    truncation, bit rot, format drift) is detected on read, counted in
    [cache.corrupt], and degrades to a recompute — never a crash.
    Writes are atomic (temp file + rename).  The cache is
    concurrency-safe: one internal mutex serializes {!find} and
    {!store}, so the concurrent daemon's worker domains share it
    directly.

    The cache keeps no counters of its own.  Its facts are
    {!Dca_support.Telemetry} descriptors — [cache.mem_hits],
    [cache.disk_hits], [cache.misses], [cache.stores],
    [cache.evictions], [cache.corrupt], [dca_cache_degraded_total] and
    the [cache.mem_entries] gauge — added into the context that was
    ambient at {!create} whether or not it is counting; every hit,
    miss, store and eviction is counted exactly once, also under
    concurrency. *)

type entry = {
  e_decision : Dca_core.Driver.decision;
  e_outcome : Dca_core.Commutativity.outcome option;
  e_provenance : Dca_core.Report.provenance;
}

type t

val default_capacity : int
(** In-memory entries when {!create} is given no [capacity]: 4096. *)

val create : ?dir:string -> ?capacity:int -> ?on_degrade:(string -> unit) -> unit -> t
(** [dir] enables the on-disk level (created if missing); without it the
    cache is memory-only.  [capacity] bounds the in-memory level
    (default {!default_capacity} entries); disk is unbounded.  [on_degrade] fires
    exactly once, on the first failed disk write (ENOSPC, EIO, read-only
    directory, or an injected [vcache.write] fault), with the failure
    message — [dca_cache_degraded_total] ticks and the cache runs
    memory-only for the lifetime of this instance (a fresh {!create}
    over the same directory probes the disk again).  The callback runs
    under the cache's internal lock: log, do not call back into the
    cache.  The calling domain's ambient telemetry context becomes the
    context the cache counts into. *)

val find : t -> prog_digest:string -> string -> entry option
(** Probe for a loop key ({!Progdigest.loop_key}) and then for the key
    it pins to [prog_digest], the current whole-program digest
    ({!Progdigest.program_digest}): both in memory, then both on disk.
    A disk hit is promoted into memory. *)

val store : t -> prog_digest:string -> string -> entry -> unit
(** Insert into both levels, under the loop key, or under the key it
    pins to [prog_digest] when the entry's outcome escalated.  A
    disk-write failure (full disk, read-only directory, injected fault)
    is swallowed and latches the degrade: this and all later stores are
    memory-only, the reply is never affected.  Disk {e reads} keep
    working — a read-only directory still serves the entries it already
    holds. *)

(** Instrumentation contexts: monotonic-clock spans, named monotonic
    counters, and domain-tagged events, with three sinks — a human
    {!stats_table}, a JSONL event stream, and a Chrome
    [trace.json] (about://tracing / Perfetto compatible).

    State lives in explicit {e contexts} ({!Ctx.t}): the collection
    flags, one cell per registered counter, and per-domain event
    buffers.  Every operation below acts on the calling domain's
    {e ambient} context, which defaults to {!Ctx.global} — so the CLI,
    the sinks, and code that never mentions contexts behave exactly as
    under the old process-global design.  An embedder that needs
    isolation (the serve daemon attributing work to concurrent
    requests, a test keeping two sessions apart) creates a context and
    scopes it with {!with_ctx}; {!Dca_support.Pool} propagates the
    submitter's ambient context into its worker domains, so a scoped
    context follows the work across domains.

    The engine is {e zero-overhead when disabled}: with tracing and
    counting off (the default), {!span}, {!begin_span}/{!end_span},
    {!add} and {!instant} reduce to a domain-local load, an atomic
    load and a branch, and allocate nothing.  Enable collection with
    {!set_tracing} / {!set_counting}, with {!configure}, or through the
    [DCA_TRACE] / [DCA_STATS] environment variables ({!init_from_env}).

    {2 Counters and determinism}

    Counters come in two kinds.  {e Work} counters (the default) count
    decisions the deterministic merge of the parallel engine consumes —
    loops examined, invocations tested, replays decided, instructions
    those replays executed — and are {b bit-identical} for any worker
    count and either checkpointing mode: CI compares them across
    [jobs=1] / [jobs=4] as a cheap invariant on the parallel engine.
    {e Diag} counters record how the work was carried out (snapshots,
    journal traffic, forks, per-context instruction totals) and may
    legitimately differ across job counts; the stats table reports the
    two classes separately.

    A counter value is a {e descriptor} — name, kind, merge rule, a
    dense index — shared by every context; the cells live per context.
    Cells are atomics: increments from worker domains are safe, and a
    deterministic multiset of increments sums to a deterministic value
    regardless of interleaving.

    The serve daemon counts its service facts with the same
    descriptors — a {e gauge} is a counter marked as one, a
    {!histogram} the one other kind — through {!Ctx.add} and
    {!Ctx.observe}, which do not consult the counting flag.

    {2 Spans}

    Spans are recorded into per-(context, domain) buffers (no
    cross-domain contention, no reordering): each domain's event stream
    is chronological and properly nested by construction, and events
    carry the recording domain's id as [tid] — worker utilization and
    the deterministic-merge stalls are directly visible in the trace
    viewer. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds from an arbitrary origin
    ([CLOCK_MONOTONIC]).  Never goes backwards; unaffected by wall-clock
    adjustments.  Allocation-free. *)

(** {1 Counters} *)

type kind = Work | Diag

type merge = Sum | Max
(** How a counter folds when one context is merged into another
    ({!Ctx.merge_into}): [Sum] counters add; [Max] counters — peaks like
    journal length or snapshot depth — keep the larger value. *)

type counter

val counter : ?kind:kind -> ?merge:merge -> ?gauge:bool -> string -> counter
(** Find-or-create the named counter descriptor ([kind] defaults to
    [Work], [merge] to [Sum], [gauge] to [false]; all are fixed by
    whichever call registers the name first; a gauge may go down).
    Make handles top-level [let]s: registration at
    module initialization keeps the registered set identical across
    runs, so counter snapshots compare structurally. *)

val add : counter -> int -> unit
val incr : counter -> unit

val add_max : counter -> int -> unit
(** Max-merge instead of sum: the counter keeps the largest value ever
    offered (peaks: journal length, snapshot depth).  Register such
    counters with [~merge:Max] so cross-context folds preserve the peak
    semantics. *)

val value : counter -> int

val counters : ?kind:kind -> unit -> (string * int) list
(** Registered counters with their current values in the ambient
    context, sorted by name; restricted to one kind when given. *)

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find-or-create the named histogram descriptor: nanosecond
    observations over a fixed ladder (1ms, 2.5ms, 5ms … 10s, then
    +Inf), with their sum and count; its cells merge by addition. *)

type hist_snapshot = {
  hs_bounds_ns : int array;  (** bucket upper bounds; the last bucket is +Inf *)
  hs_counts : int array;  (** per-bucket counts, {e non}-cumulative; length = bounds + 1 *)
  hs_sum_ns : int;
  hs_count : int;
}

val reset : unit -> unit
(** Zero every counter and drop every recorded event of the ambient
    context.  Flags and config are untouched. *)

(** {1 Contexts} *)

type event = {
  e_ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant *)
  e_name : string;
  e_cat : string;
  e_ts : int;  (** {!now_ns} at recording *)
  e_tid : int;  (** recording domain id *)
  e_args : (string * string) list;
}

(** An isolated collection scope: its own tracing/counting flags,
    counter cells, and event buffers, over the shared descriptor
    registry. *)
module Ctx : sig
  type t

  val global : t
  (** The default ambient context of every domain — process-global
      telemetry, exactly the pre-context behavior. *)

  val create : ?tracing:bool -> ?counting:bool -> unit -> t
  (** A fresh context, flags off by default.  Cheap: no per-counter
      allocation until the context is written to. *)

  val tracing : t -> bool
  val counting : t -> bool
  val set_tracing : t -> bool -> unit
  val set_counting : t -> bool -> unit

  val value : t -> counter -> int

  val add : t -> counter -> int -> unit
  (** Add into [t] whether or not it is counting — for facts an
      embedder always keeps (the daemon's), unlike {!Telemetry.add}. *)

  val observe : t -> histogram -> int -> unit
  (** Record one observation (nanoseconds) into [t], unconditionally;
      a negative value lands in the first bucket and adds nothing to
      the sum. *)

  val counters : ?kind:kind -> ?gauge:bool -> t -> (string * int) list
  (** As {!Telemetry.counters}; [~gauge] keeps only the gauges ([true])
      or only the plain counters ([false]). *)

  val histograms : t -> (string * hist_snapshot) list
  (** Every registered histogram's cells in [t], sorted by name. *)

  val events : t -> event list
  val reset : t -> unit

  val merge_into : into:t -> t -> unit
  (** [merge_into ~into src] folds [src]'s counters into [into]: [Sum]
      counters and histogram cells add, [Max] counters keep the larger
      value.
      Unconditional — aggregation of already collected data is not
      gated on [into]'s counting flag.  Events are {e not} folded; they
      stay with the context that recorded them.  [src] is unchanged;
      merging a context into itself is a no-op. *)
end

val current : unit -> Ctx.t
(** The calling domain's ambient context ({!Ctx.global} unless inside
    {!with_ctx}). *)

val with_ctx : Ctx.t -> (unit -> 'a) -> 'a
(** [with_ctx c f] runs [f] with [c] as the ambient context of the
    calling domain, restoring the previous ambient on return or
    exception.  Scopes nest.  Other domains are unaffected — but
    {!Dca_support.Pool.map} captures the submitter's ambient context
    and installs it around each task, so pooled work lands in the same
    context as the code that requested it. *)

(** {1 Enabling} *)

val tracing : unit -> bool
(** Event collection on in the ambient context?  Guard construction of
    span argument lists with this so the disabled path stays
    allocation-free. *)

val counting : unit -> bool

val set_tracing : bool -> unit
val set_counting : bool -> unit
(** Flip the ambient context's flags. *)

type config = {
  cfg_trace : string option;  (** Chrome [trace.json] output path *)
  cfg_jsonl : string option;  (** JSONL event-stream output path *)
  cfg_stats : bool;  (** print {!stats_table} to [stderr] on {!flush} *)
}

val configure : config -> unit
(** Install [config] and derive the collection flags of {!Ctx.global}:
    tracing iff an output file is set, counting iff tracing or
    [cfg_stats].  Sinks are process-level — there is one config, not
    one per context. *)

val config : unit -> config

val init_from_env : unit -> unit
(** One-shot environment wiring: [DCA_TRACE=FILE] enables tracing (a
    [.jsonl] suffix selects the JSONL sink, anything else the Chrome
    sink) and [DCA_STATS=1] enables the stats table.  The first call
    reads the environment; later calls — and calls after an explicit
    {!configure} — are no-ops, so a front end's flags always win. *)

(** {1 Spans and events} *)

val begin_span : ?cat:string -> string -> unit
(** Record a ["B"] event on the calling domain (no-op unless the
    ambient context is tracing).  Every [begin_span] must be paired
    with an {!end_span} on the same domain — use {!span} unless an
    exception cannot escape between the two. *)

val end_span : ?args:(string * string) list -> string -> unit
(** Record the matching ["E"] event.  [args] (attached to the end event,
    where results like a verdict or an instruction count are known) must
    only be constructed under a {!tracing} guard to keep the disabled
    path allocation-free. *)

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a [begin_span]/[end_span] pair; the
    end event is recorded even if [f] raises.  When tracing is off this
    is exactly [f ()]. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration ["i"] event. *)

val events : unit -> event list
(** Every event recorded into the ambient context, grouped by domain,
    chronological within each domain (the order balance checks care
    about). *)

(** {1 Sinks} *)

val stats_table : unit -> string
(** Human-readable counter table of the ambient context: work counters,
    then diagnostic counters, sorted by name; zero-valued counters are
    elided. *)

val write_chrome_trace : string -> unit
(** Write the ambient context's events as a Chrome trace
    ([{"traceEvents":[...]}]) with [ph]/[pid]/[tid]/[ts]/[name] fields,
    timestamps in microseconds rebased to the earliest event.  Loadable
    in about://tracing and Perfetto. *)

val write_jsonl : string -> unit
(** Write the ambient context's events as one JSON object per line,
    timestamps in raw monotonic nanoseconds. *)

val flush : unit -> unit
(** Drive the configured sinks: write [cfg_trace] and [cfg_jsonl] if
    set, print the stats table to [stderr] if [cfg_stats].  Idempotent —
    later flushes rewrite the files with the fuller event set. *)

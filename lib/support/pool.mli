(** Fixed-size worker pool over OCaml 5 domains.

    The DCA dynamic stage fans out at two points, and the tasks of each
    are independent: the permuted replays of one tested invocation, each
    on its own replica of the entry state, and the escalations of the
    loops of one shared run, each with its own evaluators.  The pool
    turns that independence into multicore execution while keeping every
    user-visible result {e deterministic}: {!map} returns results in input
    order, and when several tasks raise, the exception of the
    {e lowest-indexed} input is re-raised — exactly what a sequential
    [List.map] would have surfaced first.

    A pool created with [~jobs:1] spawns no domains and runs everything in
    the calling domain ([map] is literally [List.map]), so every width
    runs the same code, and width 1 runs it in order.

    Maps do not nest: the engine submits its replay maps from the main
    domain inside a shared run, and escalation tasks do not map.  A caller
    waiting on its map {e participates} — it runs queued tasks instead of
    blocking — so its map finishes even while every worker is busy. *)

type t

val create : jobs:int -> t
(** Spawn a pool with [jobs] total executors: the caller plus
    [jobs - 1] worker domains.  [jobs] is clamped to [1 .. 128]. *)

val jobs : t -> int
(** The configured parallelism width (1 = sequential). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, potentially in parallel,
    and returns the results in the order of [xs].  If any application
    raises, the exception of the earliest input element is re-raised
    (with its backtrace) after all tasks have settled. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Must not be called
    while a {!map} is in flight. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val default_jobs : unit -> int
(** The [DCA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

(** Deterministic fault injection for robustness testing.

    A {e fault point} is a named site in the analyzer (e.g.
    [eval.step], [store.snapshot], [pool.task], [commutativity.replay],
    [driver.loop]) or the serve plane ([serve.worker] models a worker
    domain crash, [engine.analyze] an engine failure, [vcache.write] a
    full or read-only cache disk) that consults the ambient {e fault
    plan} each time execution passes through it.  A plan entry fires at
    the Nth hit of a site — optionally filtered to one {e context} (a
    loop label, a schedule name) — and injects one of four actions:

    - [raise]: raise {!Injected} at the site (models an analyzer bug);
    - [trap]: ask the caller to raise its domain-specific trap
      (a guest-program fault, e.g. [Eval.Trap]);
    - [fuel]: ask the caller to raise its resource-exhaustion signal
      (e.g. [Eval.Out_of_fuel]);
    - [delay:MS]: busy-wait MS milliseconds, then continue (models a
      slow dependency; pairs with wall-clock deadline guards).

    The ambient plan follows {!Telemetry}'s context model: it is
    domain-local, defaults to the {e process plan} ([--faults],
    [DCA_FAULTS], {!arm}) on every domain, and {!with_plan} scopes
    another one for a dynamic extent — the serve daemon runs a
    fault-carrying request under its own plan while concurrent requests
    keep the process plan.  {!Dca_support.Pool.map} captures the
    caller's plan and reinstalls it in whichever domain runs a task, so
    scoping an analysis scopes its whole pool.  With an empty plan (the
    default) {!hit} is a domain-local read plus a branch and allocates
    nothing.

    {2 Determinism}

    Hit counting is per plan entry, under a single mutex on the armed
    slow path.  A plan entry scoped to a context whose hits occur
    sequentially (one loop's test, one schedule's replay) fires at a
    deterministic hit regardless of [--jobs]; an {e unscoped} entry on a
    site that is hit from several worker domains (e.g. a bare
    [pool.task]) can fire on a different task under different job
    counts, so jobs-invariance claims hold only for context-scoped
    plans.

    {2 Plan grammar}

    {v
    plan   := entry (';' entry)*
    entry  := site [ '[' ctx ']' ] [ '@' N [ '+' ] ] '=' action
    action := 'raise' | 'trap' | 'fuel' | 'delay:' MS
    v}

    [@N] selects the Nth matching hit (default 1); a trailing [+] makes
    the entry fire on every hit from the Nth on instead of exactly once.
    Example: [driver.loop[main:3(d1)]@1=raise; eval.step@100+=delay:2]. *)

exception Injected of string
(** Raised at a site by a [raise] action.  The payload is
    {!injected_msg} for the site and context, so reports stay
    deterministic and recognizable ({!is_injected_message}). *)

exception Bad_plan of string
(** Raised by {!arm_string} / {!init_from_env} on a malformed plan. *)

type action =
  | Raise
  | Trap
  | Fuel
  | Delay_ms of int

type spec = {
  sp_site : string;
  sp_ctx : string option;  (** [None]: match any context *)
  sp_nth : int;  (** fire at the [sp_nth]-th matching hit, 1-based *)
  sp_repeat : bool;  (** fire on every hit from the Nth on *)
  sp_action : action;
}

val parse : string -> (spec list, string) result
val spec_to_string : spec -> string
val plan_to_string : spec list -> string

(** {1 Plans} *)

type plan
(** An armed plan: its entries and their hit counters. *)

val make : spec list -> plan
(** A plan over [specs] with every hit counter zeroed.  [make []] never
    fires. *)

val current : unit -> plan
(** The calling domain's ambient plan: the innermost {!with_plan} scope,
    else the process plan. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] as the calling domain's ambient
    plan, restoring the previous one afterwards (also on exception).
    Hits inside the scope count against [p] only; the process plan and
    other domains are untouched. *)

(** {1 The process plan} *)

val arm : spec list -> unit
(** Install the process plan (replacing any previous one) with all hit
    counters zeroed.  An empty list disarms. *)

val arm_string : string -> unit
(** [parse] + {!arm}; raises {!Bad_plan} on a parse error. *)

val disarm : unit -> unit

val armed : unit -> bool
(** Does the ambient plan have any entries? *)

val reset_hits : unit -> unit
(** Zero every hit counter of the ambient plan without changing it —
    called between programs of a batch sweep so a one-shot plan applies
    to each program independently. *)

val init_from_env : unit -> unit
(** One-shot environment wiring: the first call arms the [DCA_FAULTS]
    plan if the variable is set (raising {!Bad_plan} if malformed);
    later calls — and calls after an explicit {!arm} — are no-ops, so a
    front end's [--faults] always wins. *)

val fired : unit -> int
(** Total entry firings of the ambient plan since it was made. *)

(** {1 Sites} *)

type site

val site : string -> site
(** Find-or-create the named site (top-level [let] at the instrumented
    module, like {!Telemetry.counter}). *)

val site_name : site -> string

val known_sites : unit -> string list
(** Names registered so far, sorted — registration happens at module
    initialization of the instrumented libraries. *)

type fire =
  | Pass  (** nothing fired (or a [delay] already served its wait) *)
  | Fire_trap  (** caller should raise its trap exception *)
  | Fire_fuel  (** caller should raise its fuel-exhaustion exception *)

val hit : ?ctx:string -> site -> fire
(** Pass through the site under the ambient plan.  Empty plan: returns
    [Pass], allocates nothing.  Otherwise: bumps matching entries' hit
    counters and performs the first firing action — [Raise] raises
    {!Injected} right here, [Delay_ms] sleeps then returns [Pass],
    [Trap]/[Fuel] are returned for the caller to map onto its own
    exceptions. *)

val hit_unit : ?ctx:string -> site -> unit
(** Like {!hit} for sites with no evaluator to interpret [trap]/[fuel]:
    any firing action other than a delay raises {!Injected}. *)

val injected_msg : ?ctx:string -> string -> string
(** ["injected fault at SITE"] (or [SITE[CTX]]): the canonical message
    carried by {!Injected} and by injected guest traps. *)

val is_injected_message : string -> bool
(** Does the message (a verdict explanation, an exception payload)
    originate from an injected fault?  Used to tick the
    [dca.faults-injected] counter deterministically. *)

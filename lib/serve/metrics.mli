(** The wire snapshot of a {!Dca_support.Telemetry} context
    (DESIGN.md §13): its counters, gauges and histograms as one value
    that round-trips through JSON (the [stats] protocol verb carries it
    to clients) and renders to a Prometheus-style text {!exposition} —
    the formats of `dca client --metrics` and the daemon's
    [--metrics-file].

    The daemon keeps no counters of its own: every service fact
    (requests, errors, cache traffic, shed connections, timeouts,
    worker restarts, the in-flight, queue-depth and resident-entry
    gauges, the request-latency histogram) is a Telemetry descriptor
    registered by the module that ticks it ({!Engine}, {!Vcache},
    {!Server}), added into the daemon's context whether or not that
    context is counting.  A snapshot of that context is therefore the
    same set of cells the [stats] reply's counters and the daemon's
    [--stats] table show. *)

type snapshot = {
  sn_counters : (string * int) list;  (** plain counters, sorted by name *)
  sn_gauges : (string * int) list;  (** the counters marked as gauges *)
  sn_hists : (string * Dca_support.Telemetry.hist_snapshot) list;
}

val snapshot : Dca_support.Telemetry.Ctx.t -> snapshot
(** Every registered descriptor's cells in the context, zero or not.
    Atomic per cell; a concurrent observation may straddle two cells of
    one histogram (count visible, sum not yet), which the next snapshot
    repairs — totals never drift. *)

val quantile : Dca_support.Telemetry.hist_snapshot -> float -> float
(** [quantile h q] estimates the [q]-quantile (e.g. [0.99]) in {e
    seconds} by linear interpolation inside the bucket holding the
    rank, the same estimate as Prometheus' [histogram_quantile].
    Observations in the +Inf overflow bucket clamp to the last finite
    bound; an empty histogram yields [0.0]. *)

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> (snapshot, string) result

val exposition : snapshot -> string
(** Prometheus-style text: a [# TYPE] line per family, histogram
    buckets cumulative with [le] in seconds closing at [+Inf], then
    [_sum] (seconds) and [_count]. *)

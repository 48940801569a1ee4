(* The metrics the suite prints, by name and unit.  BENCHMARK.json
   declares the same sets (test_manifest checks that they agree).  Every
   metric name the suite uses is spelled here and only here: Common.set
   and Common.add refuse any other name, and a run fails if a metric of
   the set its mode selects was never set. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m ?(better = Lower) name unit = { name; unit; better }
let names metrics = List.map (fun x -> x.name) metrics

let workloads = [ "registry"; "fuzz"; "serve-cold"; "serve-mixed" ]

(* How a metric scales with the machine's pace (benchsuite/pace.ml): a
   time by the pace factor, a rate by its inverse, anything else not at
   all. *)
let pace_power m =
  match m.unit with "s" | "ms" | "us" | "ns" -> 1 | "1/s" -> -1 | _ -> 0

(* Printed by an untraced run ([--trace 0]). *)
let end_to_end =
  [
    m "setup_s" "s";
    m ~better:Higher "throughput_per_s" "1/s";
    m "latency_tail_ms" "ms";
    m "peak_rss_mb" "MB";
  ]

(* The self times the dynamic stage is split into. *)
let dca_parts =
  [
    "dca.examine.ms";
    "dca.staticproof.ms";
    "dca.golden.ms";
    "dca.replay.ms";
    "dca.wp.ms";
    "dca.invocation_self.ms";
    "dca.loop_self.ms";
    "dca.session_self.ms";
  ]

(* The layers an item's time is split into: item.ms is their sum plus
   residual.ms. *)
let components =
  [ "frontend.ms"; "analysis.ms" ]
  @ dca_parts
  @ [ "report.ms"; "profiling.ms"; "parallel.ms"; "serve.engine_self.ms"; "serve.wait.ms" ]

(* Layer metrics only some workloads exercise; the others set them to 0
   by name (Common.not_exercised). *)
let fuzz_layers = [ m "fuzz.missed_by_sampling_ratio" "fraction" ]

let serve_layers =
  [
    m "serve.engine_p50_ms" "ms";
    m "serve.engine_p90_ms" "ms";
    m "serve.wait_p50_ms" "ms";
    m "serve.wait_p90_ms" "ms";
    m "serve.shed" "count";
    m "serve.timeouts" "count";
    m "serve.worker_restarts" "count";
    m ~better:Higher "vcache.hit_ratio" "fraction";
    m ~better:Higher "vcache.mem_hits" "count";
    m ~better:Higher "vcache.disk_hits" "count";
    m "vcache.misses" "count";
    m "vcache.stores" "count";
    m "vcache.evictions" "count";
    m "vcache.corrupt" "count";
  ]

let serve_cold_layers =
  [
    m "serve.cold_p50_ms" "ms";
    m "serve.diskwarm_p50_ms" "ms";
    m "serve.diskwarm_pass_ms" "ms";
    m "serve.cold_gap_ratio" "ratio";
  ]

let serve_mixed_layers =
  [
    m "serve.warm_p50_ms" "ms";
    m "serve.warm_p90_ms" "ms";
    m "serve.edit_p50_ms" "ms";
    m "serve.after_edit_p50_ms" "ms";
    m "serve.new_p50_ms" "ms";
  ]

(* Printed by a traced run ([--trace 1]).  Times and counts are per item
   (one analysed program, or one request), so they stay comparable when a
   faster tree fits more items into the same run. *)
let per_layer =
  (* where an item's time goes *)
  (m "item.ms" "ms" :: List.map (fun n -> m n "ms") components)
  @ [
      m "residual.ms" "ms";
      m "dca.ms" "ms";
      m "residual.share" "fraction";
      m "trace.overhead_pct" "%";
      m "pace.factor" "ratio";
      (* rates of single layers *)
      m "dca.replay_ns_per_step" "ns";
      m "interp.run_ms" "ms";
      m "interp.ns_per_instr" "ns";
      m "progdigest.us" "us";
      m ~better:Higher "analysis.staticproof.proved_ratio" "fraction";
      (* work counters, per item *)
      m "dca.loops_examined" "count";
      m "dca.invocations" "count";
      m "dca.golden_runs" "count";
      m "dca.replays" "count";
      m "dca.replay_steps" "count";
      m "dca.wp_runs" "count";
      m "dca.schedules_skipped" "count";
      m "dca.loops_escalated" "count";
      m ~better:Higher "dca.static_proved" "count";
      m "dca.static_bailouts" "count";
      m "interp.instructions" "count";
      m "store.snapshots" "count";
      m "store.restores" "count";
      m "store.cells_dirtied" "count";
    ]
  @ fuzz_layers @ serve_layers @ serve_cold_layers @ serve_mixed_layers

let is_layer name = List.mem name (names per_layer)
let declared name = is_layer name || List.mem name (names end_to_end)
let better_to_string = function Lower -> "lower" | Higher -> "higher"

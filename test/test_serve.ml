(* The serve subsystem: JSON codec, wire protocol, content digests, the
   two-level verdict cache, the cached engine, and the socket server.

   The engine tests are the interesting ones: they pin down the cache's
   observable contract — an edit to one function recomputes only that
   function's loops (watched through the deterministic dca.golden_runs
   counter: cache hits tick no work counters), cached replies are
   byte-identical to cold ones at any job width, and a corrupted on-disk
   entry degrades to a recompute, never a wrong answer. *)

module Json = Dca_serve.Json
module Protocol = Dca_serve.Protocol
module Vcache = Dca_serve.Vcache
module Progdigest = Dca_serve.Progdigest
module Engine = Dca_serve.Engine
module Metrics = Dca_serve.Metrics
module Server = Dca_serve.Server
module Client = Dca_serve.Client
module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Report = Dca_core.Report
module Commutativity = Dca_core.Commutativity
module Telemetry = Dca_support.Telemetry
module Faultpoint = Dca_support.Faultpoint
module Prng = Dca_support.Prng

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Every serve fact is a Telemetry descriptor counted into the context
   that was ambient when the engine (or cache) was created.  Tests that
   read those facts create their engine, cache or server in a fresh
   context, so nothing else in the test process adds into it. *)
let in_fresh_ctx f =
  let ctx = Telemetry.Ctx.create () in
  (ctx, Telemetry.with_ctx ctx f)

let cell ctx name =
  match List.assoc_opt name (Telemetry.Ctx.counters ctx) with
  | Some v -> v
  | None -> Alcotest.failf "no counter named %s" name

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "line\nquote\"tab\tslash\\end");
        ("list", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  (match Json.of_string_result (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "control chars escaped" true
    (not (String.contains (Json.to_string (Json.Str "a\nb")) '\n'))

let test_json_rejects () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ] in
  List.iter
    (fun s ->
      match Json.of_string_result s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_protocol_request_roundtrip () =
  let rq =
    {
      Protocol.rq_id = 7;
      rq_op = Protocol.Analyze;
      rq_program = Some (Protocol.Inline { file = "t.mc"; source = "void main() { }"; input = [ 1; 2 ] });
      rq_jobs = Some 4;
      rq_shuffles = Some 2;
      rq_hierarchical = true;
      rq_no_escalate = true;
      rq_deadline_ms = Some 100;
      rq_heap_words = Some 4096;
      rq_faults = Some "driver.loop@1=raise";
      rq_no_cache = true;
      rq_no_static = true;
    }
  in
  (match Protocol.parse_request (Protocol.request_line rq) with
  | Ok rq' -> Alcotest.(check bool) "request round-trips" true (rq = rq')
  | Error e -> Alcotest.fail e);
  (* named programs and defaults *)
  match Protocol.parse_request "{\"op\":\"analyze\",\"program\":\"LU\",\"future_field\":1}" with
  | Ok rq' ->
      Alcotest.(check bool) "named program" true (rq'.Protocol.rq_program = Some (Protocol.Named "LU"));
      Alcotest.(check bool) "defaults" true
        (rq'.Protocol.rq_jobs = None && not rq'.Protocol.rq_hierarchical)
  | Error e -> Alcotest.fail e

let test_protocol_request_rejects () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "{\"id\":1}" (* no op *);
      "{\"op\":\"frobnicate\"}" (* unknown op *);
      "{\"op\":\"analyze\"}" (* analyze without program *);
      "not json at all";
    ]

let test_protocol_response_roundtrip () =
  let rp =
    {
      Protocol.rp_id = 9;
      rp_req = 42;
      rp_status = Protocol.Ok;
      rp_error = None;
      rp_report = Some "DCA: 1/1 loop(s) commutative\n";
      rp_loops =
        [
          { Protocol.li_label = "main:3(d1)"; li_decision = "commutative"; li_cached = true; li_provenance = Report.Static };
          { Protocol.li_label = "main:5(d1)"; li_decision = "aborted"; li_cached = false; li_provenance = Report.Dynamic };
        ];
      rp_hits = 1;
      rp_misses = 1;
      rp_counters = [ ("dca_requests_total", 3) ];
      rp_metrics = None;
      rp_elapsed_ns = 12345;
    }
  in
  match Protocol.parse_response (Protocol.response_line rp) with
  | Ok rp' -> Alcotest.(check bool) "response round-trips" true (rp = rp')
  | Error e -> Alcotest.fail e

(* The [busy] status (overload shed, worker crash) survives the wire,
   and an unknown status from a newer daemon degrades to [Error] — an
   older client never mistakes it for success. *)
let test_protocol_status () =
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Protocol.status_to_string st ^ " round-trips")
        true
        (Protocol.status_of_string (Protocol.status_to_string st) = st))
    [ Protocol.Ok; Protocol.Busy; Protocol.Error ];
  let busy = Protocol.busy_response ~id:3 "server overloaded: request queue is full (max 64)" in
  Alcotest.(check bool) "busy is not ok" false (Protocol.ok busy);
  (match Protocol.parse_response (Protocol.response_line busy) with
  | Ok rp ->
      Alcotest.(check bool) "busy survives the wire" true (rp.Protocol.rp_status = Protocol.Busy);
      Alcotest.(check bool) "busy carries its message" true
        (match rp.Protocol.rp_error with
        | Some m -> has_prefix "server overloaded" m
        | None -> false)
  | Error e -> Alcotest.fail e);
  match Protocol.parse_response "{\"id\":1,\"status\":\"throttled\"}" with
  | Ok rp ->
      Alcotest.(check bool) "unknown status degrades to error" true
        (rp.Protocol.rp_status = Protocol.Error && not (Protocol.ok rp))
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Content digests                                                     *)
(* ------------------------------------------------------------------ *)

let compile source = Dca_ir.Lower.compile ~file:"t.mc" source

let two_funcs fb_add =
  Printf.sprintf
    {|
int a[16];
int b[16];
void fa() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; } }
void fb() { int i; for (i = 0; i < 16; i = i + 1) { b[i] = b[i] + %d; } }
void main() { fa(); fb(); }
|}
    fb_add

(* Formatting round-trips: whitespace and comments lower to identical IR,
   so every digest — whole-program and per-function — is unchanged. *)
let test_digest_formatting_stable () =
  let reformatted =
    {|
int a[16];   int b[16];
/* reformatted, semantically identical */
void fa() {
  int i;
  for (i = 0; i < 16; i = i + 1) { a[i] = a[i] + 1; }  // bump
}
void fb() { int i; for (i = 0; i < 16; i = i + 1) { b[i] = b[i] + 2; } }
void main() { fa(); fb(); }
|}
  in
  let d1 = Progdigest.of_program (compile (two_funcs 2)) in
  let d2 = Progdigest.of_program (compile reformatted) in
  Alcotest.(check string) "program digest" (Progdigest.program_digest d1)
    (Progdigest.program_digest d2);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f ^ " closure digest")
        true
        (Progdigest.func_digest d1 f = Progdigest.func_digest d2 f))
    [ "fa"; "fb"; "main" ]

(* Editing one function moves its own digest and its (transitive)
   callers' — and nobody else's. *)
let test_digest_edit_granularity () =
  let d1 = Progdigest.of_program (compile (two_funcs 2)) in
  let d2 = Progdigest.of_program (compile (two_funcs 3)) in
  Alcotest.(check bool) "fa unchanged" true
    (Progdigest.func_digest d1 "fa" = Progdigest.func_digest d2 "fa");
  Alcotest.(check bool) "fb changed" false
    (Progdigest.func_digest d1 "fb" = Progdigest.func_digest d2 "fb");
  Alcotest.(check bool) "caller main changed" false
    (Progdigest.func_digest d1 "main" = Progdigest.func_digest d2 "main");
  Alcotest.(check bool) "program digest changed" false
    (Progdigest.program_digest d1 = Progdigest.program_digest d2)

(* ------------------------------------------------------------------ *)
(* Verdict cache                                                       *)
(* ------------------------------------------------------------------ *)

let entry decision = { Vcache.e_decision = decision; e_outcome = None; e_provenance = Report.Dynamic }

let test_vcache_memory () =
  let ctx, c = in_fresh_ctx (fun () -> Vcache.create ~capacity:2 ()) in
  Vcache.store c ~prog_digest:"P" "k1" (entry Driver.Commutative);
  Vcache.store c ~prog_digest:"P" "k2" (entry (Driver.Non_commutative "digest mismatch"));
  (match Vcache.find c ~prog_digest:"P" "k1" with
  | Some e -> Alcotest.(check bool) "k1 decision" true (e.Vcache.e_decision = Driver.Commutative)
  | None -> Alcotest.fail "k1 missing");
  (* k2 is now least-recently-used; inserting k3 evicts it *)
  ignore (Vcache.find c ~prog_digest:"P" "k1");
  Vcache.store c ~prog_digest:"P" "k3" (entry Driver.Commutative);
  Alcotest.(check int) "capacity held" 2 (cell ctx "cache.mem_entries");
  Alcotest.(check bool) "LRU evicted k2" true (Vcache.find c ~prog_digest:"P" "k2" = None);
  Alcotest.(check bool) "k1 survived" true (Vcache.find c ~prog_digest:"P" "k1" <> None);
  Alcotest.(check int) "one eviction" 1 (cell ctx "cache.evictions")

let test_vcache_disk_persistence () =
  let dir = fresh_dir "vcache" in
  let _, c1 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  Vcache.store c1 ~prog_digest:"P" "k1" (entry Driver.Commutative);
  (* a second instance over the same directory: a daemon restart *)
  let ctx, c2 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  (match Vcache.find c2 ~prog_digest:"P" "k1" with
  | Some e -> Alcotest.(check bool) "decision survives restart" true (e.Vcache.e_decision = Driver.Commutative)
  | None -> Alcotest.fail "disk entry missing");
  Alcotest.(check int) "served from disk" 1 (cell ctx "cache.disk_hits");
  (* promoted into memory: the second find is a memory hit *)
  ignore (Vcache.find c2 ~prog_digest:"P" "k1");
  Alcotest.(check int) "promoted to memory" 1 (cell ctx "cache.mem_hits")

let test_vcache_corruption_degrades () =
  let dir = fresh_dir "vcache" in
  let _, c1 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  Vcache.store c1 ~prog_digest:"P" "k1" (entry Driver.Commutative);
  Vcache.store c1 ~prog_digest:"P" "k2" (entry Driver.Commutative);
  (* flip payload bytes in one entry, truncate the other *)
  let f1 = Filename.concat dir "k1.v" and f2 = Filename.concat dir "k2.v" in
  let oc = open_out_gen [ Open_wronly ] 0o644 f1 in
  seek_out oc (in_channel_length (open_in_bin f1) - 3);
  output_string oc "XXX";
  close_out oc;
  let oc = open_out_bin f2 in
  output_string oc "DCAV3\ntru";
  close_out oc;
  let ctx, c2 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  Alcotest.(check bool) "flipped entry rejected" true (Vcache.find c2 ~prog_digest:"P" "k1" = None);
  Alcotest.(check bool) "truncated entry rejected" true (Vcache.find c2 ~prog_digest:"P" "k2" = None);
  Alcotest.(check int) "both counted corrupt" 2 (cell ctx "cache.corrupt")

(* An escalated entry was verified against the whole program's output,
   so it is stored under a key pinned to the whole-program digest: the
   entries of two versions under one loop key live side by side, each
   found by its own digest only, also after a restart from disk.  A
   plain entry is served to any version. *)
let test_vcache_escalated_pinned () =
  (* borrow a real outcome from a tiny analysis, then mark it escalated *)
  let outcome =
    Session.with_session
      (* prover off: we need a *dynamic* outcome record to borrow *)
      ~options:Session.Options.(default |> with_jobs 1 |> with_static false)
      (Session.Source { file = "t.mc"; source = two_funcs 2; input = [] })
      (fun s ->
        match
          List.find_map (fun (r : Driver.loop_result) -> r.Driver.lr_outcome) (Session.dca_results s)
        with
        | Some o -> o
        | None -> Alcotest.fail "no dynamic outcome")
  in
  let with_outcome escalated decision =
    {
      Vcache.e_decision = decision;
      e_outcome = Some { outcome with Commutativity.oc_escalated = escalated };
      e_provenance = Report.Dynamic;
    }
  in
  let p1 = Driver.Commutative and p2 = Driver.Non_commutative "differs in P2" in
  let dir = fresh_dir "vcache" in
  let _, c = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  Vcache.store c ~prog_digest:"P1" "esc" (with_outcome true p1);
  Vcache.store c ~prog_digest:"P2" "esc" (with_outcome true p2);
  Vcache.store c ~prog_digest:"P1" "plain" (with_outcome false p1);
  let decision c prog key =
    Option.map (fun e -> e.Vcache.e_decision) (Vcache.find c ~prog_digest:prog key)
  in
  let check_versions c =
    Alcotest.(check bool) "P1's escalated entry found by P1" true (decision c "P1" "esc" = Some p1);
    Alcotest.(check bool) "P2's escalated entry found by P2" true (decision c "P2" "esc" = Some p2);
    Alcotest.(check bool) "no escalated entry for P3" true (decision c "P3" "esc" = None);
    Alcotest.(check bool) "plain entry served to P2" true (decision c "P2" "plain" = Some p1)
  in
  check_versions c;
  (* a daemon restart: both versions come back from disk *)
  let ctx, c2 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
  check_versions c2;
  Alcotest.(check int) "three entries read from disk" 3 (cell ctx "cache.disk_hits");
  Alcotest.(check int) "P3 missed" 1 (cell ctx "cache.misses")

(* Four domains hammering one cache with disjoint keys: every store,
   hit, and miss must be counted exactly once — the counters are exact
   under concurrency, not approximate. *)
let test_vcache_concurrent_stats_exact () =
  let domains = 4 and per_domain = 250 in
  let ctx, c = in_fresh_ctx (fun () -> Vcache.create ~capacity:(domains * per_domain) ()) in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let key = Printf.sprintf "k%d.%d" d i in
      Vcache.store c ~prog_digest:"P" key (entry Driver.Commutative);
      (match Vcache.find c ~prog_digest:"P" key with
      | Some _ -> ()
      | None -> Alcotest.failf "lost our own store of %s" key);
      ignore (Vcache.find c ~prog_digest:"P" (Printf.sprintf "absent%d.%d" d i))
    done
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join spawned;
  let total = domains * per_domain in
  Alcotest.(check int) "every store counted once" total (cell ctx "cache.stores");
  Alcotest.(check int) "every hit counted once" total (cell ctx "cache.mem_hits");
  Alcotest.(check int) "every miss counted once" total (cell ctx "cache.misses");
  Alcotest.(check int) "no evictions below capacity" 0 (cell ctx "cache.evictions");
  Alcotest.(check int) "every entry resident" total (cell ctx "cache.mem_entries")

(* A failed disk write (here injected at the [vcache.write] site, in the
   field ENOSPC or a read-only directory) latches memory-only operation:
   [on_degrade] fires and [dca_cache_degraded_total] ticks exactly once,
   later stores skip the disk, reads keep serving from memory, and a
   fresh instance over the same directory probes the disk again. *)
let test_vcache_write_failure_degrades () =
  let dir = fresh_dir "vcache" in
  let on_disk () =
    Array.fold_left
      (fun n f -> if Filename.check_suffix f ".v" then n + 1 else n)
      0 (Sys.readdir dir)
  in
  let degrades = ref 0 in
  Faultpoint.arm_string "vcache.write@1=raise";
  Fun.protect
    ~finally:Faultpoint.disarm
    (fun () ->
      let ctx, c =
        in_fresh_ctx (fun () -> Vcache.create ~dir ~on_degrade:(fun _ -> incr degrades) ())
      in
      Vcache.store c ~prog_digest:"P" "k1" (entry Driver.Commutative);
      Alcotest.(check int) "on_degrade fired once" 1 !degrades;
      Alcotest.(check int) "degrade counted" 1 (cell ctx "dca_cache_degraded_total");
      (* later stores go memory-only without another degrade event *)
      Vcache.store c ~prog_digest:"P" "k2" (entry Driver.Commutative);
      Alcotest.(check int) "no second degrade" 1 !degrades;
      Alcotest.(check int) "one degrade total" 1 (cell ctx "dca_cache_degraded_total");
      Alcotest.(check bool) "k1 served from memory" true
        (Vcache.find c ~prog_digest:"P" "k1" <> None);
      Alcotest.(check bool) "k2 served from memory" true
        (Vcache.find c ~prog_digest:"P" "k2" <> None);
      Alcotest.(check int) "nothing reached the disk" 0 (on_disk ());
      (* degradation is per-instance: a restart re-probes the disk *)
      let ctx2, c2 = in_fresh_ctx (fun () -> Vcache.create ~dir ()) in
      Vcache.store c2 ~prog_digest:"P" "k3" (entry Driver.Commutative);
      Alcotest.(check int) "fresh instance writes the disk again" 1 (on_disk ());
      Alcotest.(check int) "fresh instance not degraded" 0
        (cell ctx2 "dca_cache_degraded_total"))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Test descriptors: registered once for the test process, counted
   only into the fresh contexts of the tests below. *)
let t_counter = Telemetry.counter ~kind:Telemetry.Diag "test_a_total"
let t_gauge = Telemetry.counter ~kind:Telemetry.Diag ~gauge:true "test_g"
let t_hist = Telemetry.histogram "test_h_seconds"

let test_metrics_families_and_buckets () =
  (* a fresh context is not counting: the daemon's adds are unconditional *)
  let ctx = Telemetry.Ctx.create () in
  Telemetry.Ctx.add ctx t_counter 3;
  Telemetry.Ctx.add ctx t_counter 1;
  Telemetry.Ctx.add ctx t_gauge 7;
  Telemetry.Ctx.add ctx t_gauge (-2);
  Telemetry.Ctx.observe ctx t_hist 3_000_000 (* lands in le=5ms *);
  Telemetry.Ctx.observe ctx t_hist 60_000_000_000 (* beyond the ladder: +Inf *);
  Telemetry.Ctx.observe ctx t_hist (-1) (* clamps into the first bucket *);
  let s = Metrics.snapshot ctx in
  Alcotest.(check int) "counter" 4 (List.assoc "test_a_total" s.Metrics.sn_counters);
  Alcotest.(check int) "gauge" 5 (List.assoc "test_g" s.Metrics.sn_gauges);
  Alcotest.(check bool) "a gauge is not listed as a plain counter" false
    (List.mem_assoc "test_g" s.Metrics.sn_counters);
  let h = List.assoc "test_h_seconds" s.Metrics.sn_hists in
  Alcotest.(check int) "observation count" 3 h.Telemetry.hs_count;
  Alcotest.(check int) "negative values do not poison the sum" (3_000_000 + 60_000_000_000)
    h.Telemetry.hs_sum_ns;
  Alcotest.(check int) "bucket array covers bounds + overflow"
    (Array.length h.Telemetry.hs_bounds_ns + 1)
    (Array.length h.Telemetry.hs_counts);
  Alcotest.(check int) "clamped observation in the first bucket" 1 h.Telemetry.hs_counts.(0);
  Alcotest.(check int) "3ms in the le=5ms bucket" 1 h.Telemetry.hs_counts.(2);
  Alcotest.(check int) "overflow in +Inf" 1 h.Telemetry.hs_counts.(Array.length h.Telemetry.hs_bounds_ns);
  (* histogram cells fold like Sum counters *)
  let into = Telemetry.Ctx.create () in
  Telemetry.Ctx.merge_into ~into ctx;
  Telemetry.Ctx.merge_into ~into ctx;
  let merged = List.assoc "test_h_seconds" (Metrics.snapshot into).Metrics.sn_hists in
  Alcotest.(check int) "merged count adds" 6 merged.Telemetry.hs_count;
  Alcotest.(check int) "merged overflow bucket adds" 2
    merged.Telemetry.hs_counts.(Array.length h.Telemetry.hs_bounds_ns)

let test_metrics_json_roundtrip_and_exposition () =
  let ctx = Telemetry.Ctx.create () in
  Telemetry.Ctx.add ctx t_counter 2;
  Telemetry.Ctx.add ctx t_gauge 1;
  Telemetry.Ctx.observe ctx t_hist 3_000_000;
  Telemetry.Ctx.observe ctx t_hist 2_000_000_000;
  let s = Metrics.snapshot ctx in
  (match Metrics.snapshot_of_json (Metrics.snapshot_to_json s) with
  | Ok s' -> Alcotest.(check bool) "snapshot round-trips through JSON" true (s = s')
  | Error e -> Alcotest.fail e);
  (match Metrics.snapshot_of_json (Json.Obj [ ("counters", Json.Int 3) ]) with
  | Ok _ -> Alcotest.fail "malformed snapshot accepted"
  | Error _ -> ());
  let text = Metrics.exposition s in
  let contains needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true (contains needle))
    [
      "# TYPE test_a_total counter";
      "test_a_total 2";
      "# TYPE test_g gauge";
      "test_g 1";
      "# TYPE test_h_seconds histogram";
      "test_h_seconds_bucket{le=\"0.005\"} 1";
      (* cumulative: the 2s observation joins at le=2.5s and stays *)
      "test_h_seconds_bucket{le=\"2.5\"} 2";
      "test_h_seconds_bucket{le=\"+Inf\"} 2";
      "test_h_seconds_count 2";
    ]

(* Prometheus-style quantile interpolation over the fixed bucket ladder:
   uniform-in-bucket estimates, +Inf observations clamped to the last
   finite bound, the empty histogram at zero. *)
let test_metrics_quantiles () =
  let snap_of ctx = List.assoc "test_h_seconds" (Metrics.snapshot ctx).Metrics.sn_hists in
  let ctx = Telemetry.Ctx.create () in
  Alcotest.(check (float 1e-12)) "empty histogram" 0.0 (Metrics.quantile (snap_of ctx) 0.99);
  (* 100 observations in the (2.5ms, 5ms] bucket: rank interpolation *)
  for _ = 1 to 100 do
    Telemetry.Ctx.observe ctx t_hist 4_000_000
  done;
  let h = snap_of ctx in
  Alcotest.(check (float 1e-9)) "p50 interpolates to the bucket middle" 0.00375
    (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99 near the upper bound" 0.004975 (Metrics.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p100 is the upper bound" 0.005 (Metrics.quantile h 1.0);
  Alcotest.(check bool) "quantiles are monotone" true
    (Metrics.quantile h 0.1 <= Metrics.quantile h 0.5
    && Metrics.quantile h 0.5 <= Metrics.quantile h 0.9);
  (* overflow observations clamp to the last finite bound (10s) *)
  let ctx2 = Telemetry.Ctx.create () in
  for _ = 1 to 3 do
    Telemetry.Ctx.observe ctx2 t_hist 60_000_000_000
  done;
  Alcotest.(check (float 1e-9)) "+Inf clamps to the last bound" 10.0
    (Metrics.quantile (snap_of ctx2) 0.5)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_rq ?jobs ?faults ?(no_cache = false) ?(no_static = false) source =
  {
    Protocol.default_request with
    Protocol.rq_op = Protocol.Analyze;
    rq_program = Some (Protocol.Inline { file = "t.mc"; source; input = [] });
    rq_jobs = jobs;
    rq_faults = faults;
    rq_no_cache = no_cache;
    rq_no_static = no_static;
  }

let handle_ok engine rq =
  let rp = Engine.handle engine rq in
  if not (Protocol.ok rp) then
    Alcotest.failf "request failed: %s" (Option.value rp.Protocol.rp_error ~default:"?");
  rp

let report_of rp =
  match rp.Protocol.rp_report with Some r -> r | None -> Alcotest.fail "no report"

(* Run [f] with counting enabled, returning (result, golden-run delta):
   the number of loop-local golden recordings the dynamic stage actually
   performed — zero when every verdict came from cache. *)
let with_golden_delta f =
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  let golden = Telemetry.counter "dca.golden_runs" in
  let before = Telemetry.value golden in
  let result = f () in
  let delta = Telemetry.value golden - before in
  Telemetry.set_counting was;
  (result, delta)

let test_engine_cold_then_warm () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      (* prover off: this test asserts the *dynamic* stage's cache behaviour *)
      let cold, cold_golden =
        with_golden_delta (fun () -> handle_ok engine (analyze_rq ~no_static:true (two_funcs 2)))
      in
      Alcotest.(check int) "cold: no hits" 0 cold.Protocol.rp_hits;
      Alcotest.(check int) "cold: every loop computed" 2 cold.Protocol.rp_misses;
      Alcotest.(check bool) "cold ran the dynamic stage" true (cold_golden > 0);
      let warm, warm_golden =
        with_golden_delta (fun () -> handle_ok engine (analyze_rq ~no_static:true (two_funcs 2)))
      in
      Alcotest.(check int) "warm: every loop from cache" 2 warm.Protocol.rp_hits;
      Alcotest.(check int) "warm: nothing computed" 0 warm.Protocol.rp_misses;
      Alcotest.(check int) "warm ticked no work counters" 0 warm_golden;
      Alcotest.(check string) "byte-identical reply" (report_of cold) (report_of warm);
      Alcotest.(check bool) "loops flagged cached" true
        (List.for_all (fun li -> li.Protocol.li_cached) warm.Protocol.rp_loops))

(* The invalidation contract: editing fb recomputes fb's loop only — fa's
   verdict is served from cache, asserted both through hit counts and
   through the golden-runs work counter. *)
let test_engine_invalidation_granularity () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let _, cold_golden =
        with_golden_delta (fun () -> handle_ok engine (analyze_rq ~no_static:true (two_funcs 2)))
      in
      let edited, edit_golden =
        with_golden_delta (fun () -> handle_ok engine (analyze_rq ~no_static:true (two_funcs 3)))
      in
      Alcotest.(check int) "fa's loop still cached" 1 edited.Protocol.rp_hits;
      Alcotest.(check int) "only fb's loop recomputed" 1 edited.Protocol.rp_misses;
      Alcotest.(check bool) "partial recompute did partial work" true
        (edit_golden > 0 && edit_golden < cold_golden);
      List.iter
        (fun li ->
          let expect_cached = String.length li.Protocol.li_label >= 2 && String.sub li.Protocol.li_label 0 2 = "fa" in
          Alcotest.(check bool) (li.Protocol.li_label ^ " cached flag") expect_cached li.Protocol.li_cached)
        edited.Protocol.rp_loops)

(* Cache-hit replies are byte-identical to cold ones at any job width,
   in every direction: cold@1 = warm@4 = cold@4. *)
let test_engine_jobs_invariant_replies () =
  let dir = fresh_dir "engine" in
  let cold1, warm4 =
    let engine = Engine.create ~cache_dir:dir () in
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () ->
        let c = handle_ok engine (analyze_rq ~jobs:1 (two_funcs 2)) in
        let w = handle_ok engine (analyze_rq ~jobs:4 (two_funcs 2)) in
        (report_of c, report_of w))
  in
  Alcotest.(check string) "warm jobs=4 = cold jobs=1" cold1 warm4;
  let engine = Engine.create () in
  let cold4 =
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () -> report_of (handle_ok engine (analyze_rq ~jobs:4 (two_funcs 2))))
  in
  Alcotest.(check string) "cold jobs=4 = cold jobs=1" cold1 cold4

(* A corrupted on-disk entry is recomputed — same reply, one corrupt tick. *)
let test_engine_corrupt_entry_recomputes () =
  let dir = fresh_dir "engine" in
  let cold =
    let engine = Engine.create ~cache_dir:dir () in
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () -> report_of (handle_ok engine (analyze_rq (two_funcs 2))))
  in
  (* poison every stored entry on disk *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".v" then begin
        let oc = open_out_bin (Filename.concat dir f) in
        output_string oc "DCAV3\ndeadbeef\ngarbage";
        close_out oc
      end)
    (Sys.readdir dir);
  let ctx, engine = in_fresh_ctx (fun () -> Engine.create ~cache_dir:dir ()) in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let rp = handle_ok engine (analyze_rq (two_funcs 2)) in
      Alcotest.(check int) "nothing served from poison" 0 rp.Protocol.rp_hits;
      Alcotest.(check string) "recomputed reply identical" cold (report_of rp);
      Alcotest.(check bool) "corruption detected" true (cell ctx "cache.corrupt" > 0))

(* A helper whose loop escalates: its live-out [last] differs under a
   permutation, and the program's output does not.  [edit] goes into
   [main], which has no loop, so the helper's loop key stays put while
   the whole-program digest moves. *)
let escalating_helper edit =
  Printf.sprintf
    {|
int a[8];
int last;
void helper() {
  int i;
  for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + 1; last = i; }
}
void main() {%s
  helper();
  printi(a[3]);
}
|}
    edit

(* The first hit after an edit: the escalated verdict of the unedited
   program is still there after the edit's re-test, so the original,
   sent again, is answered from cache with the cold reply. *)
let test_engine_first_hit_after_edit () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let original = analyze_rq (escalating_helper "") in
      let cold = handle_ok engine original in
      Alcotest.(check bool) "the helper's loop escalated" true
        (List.exists
           (fun line -> Filename.check_suffix line ", escalated]")
           (String.split_on_char '\n' (report_of cold)));
      let edit = handle_ok engine (analyze_rq (escalating_helper " int dead; dead = 1;")) in
      Alcotest.(check int) "the edit re-tests the escalated loop" 1 edit.Protocol.rp_misses;
      let again = handle_ok engine original in
      Alcotest.(check int) "the original misses nothing" 0 again.Protocol.rp_misses;
      Alcotest.(check int) "the original hits its loop" 1 again.Protocol.rp_hits;
      Alcotest.(check string) "the cold reply" (report_of cold) (report_of again))

(* A request the cache answers in full computes no function's liveness,
   affine facts or PDG: the analysed-functions counter of the daemon's
   context does not move. *)
let test_engine_all_hits_analyse_nothing () =
  let ctx = Telemetry.Ctx.create ~counting:true () in
  let engine = Telemetry.with_ctx ctx (fun () -> Engine.create ()) in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      ignore (handle_ok engine (analyze_rq (two_funcs 2)));
      Alcotest.(check int) "cold: fa and fb analysed, loop-free main not" 2
        (cell ctx "analysis.functions");
      let warm = handle_ok engine (analyze_rq (two_funcs 2)) in
      Alcotest.(check int) "warm: all hits" 0 warm.Protocol.rp_misses;
      Alcotest.(check int) "warm: no function analysed" 2 (cell ctx "analysis.functions"))

let is_aborted li = has_prefix "aborted" li.Protocol.li_decision

(* A fault-carrying request aborts its own loops, bypasses the cache both
   ways, and leaves the daemon and the cache clean for the next request. *)
let test_engine_fault_request_contained () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let cold = handle_ok engine (analyze_rq ~no_static:true (two_funcs 2)) in
      let faulty =
        handle_ok engine
          (analyze_rq ~no_static:true ~faults:"commutativity.replay@1=raise" (two_funcs 2))
      in
      Alcotest.(check int) "fault request skips the cache" 0 faulty.Protocol.rp_hits;
      Alcotest.(check bool) "a loop aborted" true (List.exists is_aborted faulty.Protocol.rp_loops);
      let after = handle_ok engine (analyze_rq ~no_static:true (two_funcs 2)) in
      Alcotest.(check int) "cache not poisoned" 2 after.Protocol.rp_hits;
      Alcotest.(check string) "post-fault reply identical to cold" (report_of cold) (report_of after))

let test_engine_errors () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let unknown =
        Engine.handle engine
          { Protocol.default_request with Protocol.rq_op = Protocol.Analyze; rq_program = Some (Protocol.Named "no-such-program") }
      in
      Alcotest.(check bool) "unknown program is an error reply" false (Protocol.ok unknown);
      let parse_error = Engine.handle engine (analyze_rq "void main( {") in
      Alcotest.(check bool) "parse error is an error reply" false (Protocol.ok parse_error);
      (* the engine survives both *)
      let ping = Engine.handle engine Protocol.default_request in
      Alcotest.(check bool) "engine alive" true (Protocol.ok ping))

(* A cache whose disk writes fail (injected [vcache.write]) downgrades
   to memory-only mid-flight: the degrade is logged and counted exactly
   once, and warm replies are still byte-identical to the cold ones. *)
let test_engine_degraded_cache_still_serves () =
  let dir = fresh_dir "engine" in
  Faultpoint.arm_string "vcache.write@1=raise";
  Fun.protect
    ~finally:Faultpoint.disarm
    (fun () ->
      let ctx, engine = in_fresh_ctx (fun () -> Engine.create ~cache_dir:dir ()) in
      Fun.protect
        ~finally:(fun () -> Engine.close engine)
        (fun () ->
          let cold = handle_ok engine (analyze_rq (two_funcs 2)) in
          Alcotest.(check int) "degrade counted once" 1 (cell ctx "dca_cache_degraded_total");
          let warm = handle_ok engine (analyze_rq (two_funcs 2)) in
          Alcotest.(check int) "warm served from memory" 2 warm.Protocol.rp_hits;
          Alcotest.(check string) "degraded warm reply byte-identical" (report_of cold)
            (report_of warm)))

(* One registry: every serve fact is one Telemetry descriptor in the
   daemon's context.  After a cold, a warm, a fault-carrying and a
   degrading request, the [stats] reply's counters, its metrics
   snapshot and the context itself agree cell for cell, and no fact is
   reported under two names. *)
let test_engine_one_registry () =
  let dir = fresh_dir "engine" in
  let ctx, engine = in_fresh_ctx (fun () -> Engine.create ~cache_dir:dir ()) in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let cold = handle_ok engine (analyze_rq ~jobs:1 (two_funcs 2)) in
      let warm = handle_ok engine (analyze_rq ~jobs:1 (two_funcs 2)) in
      let faulted =
        handle_ok engine (analyze_rq ~jobs:1 ~faults:"commutativity.replay@1=raise" (two_funcs 2))
      in
      (* the daemon's own plan fails the next disk write: fb's edited
         loop is stored memory-only and the cache degrades *)
      Faultpoint.arm_string "vcache.write@1=raise";
      let edit =
        Fun.protect ~finally:Faultpoint.disarm (fun () ->
            handle_ok engine (analyze_rq ~jobs:1 (two_funcs 3)))
      in
      let stats = Engine.handle engine { Protocol.default_request with Protocol.rq_op = Protocol.Stats } in
      let snap =
        match Option.map Metrics.snapshot_of_json stats.Protocol.rp_metrics with
        | Some (Ok s) -> s
        | _ -> Alcotest.fail "stats reply carries no metrics snapshot"
      in
      let cells = snap.Metrics.sn_counters @ snap.Metrics.sn_gauges in
      let live = Telemetry.Ctx.counters ctx in
      List.iter
        (fun (name, v) ->
          (match List.assoc_opt name cells with
          | Some w -> Alcotest.(check int) (name ^ ": counters = metrics") v w
          | None -> ());
          match List.assoc_opt name live with
          | Some w -> Alcotest.(check int) (name ^ ": counters = context") v w
          | None -> ())
        stats.Protocol.rp_counters;
      Alcotest.(check (list string)) "the counters are the snapshot's cells"
        (List.sort compare (List.map fst cells))
        (List.map fst stats.Protocol.rp_counters);
      (* one name per fact: the old aliases of requests, errors and the
         degrade latch are gone from every view *)
      List.iter
        (fun dup ->
          Alcotest.(check bool) (dup ^ " is gone") false
            (List.mem_assoc dup (stats.Protocol.rp_counters @ cells @ live)))
        [ "serve.requests"; "serve.aborted_requests"; "cache.write_errors"; "cache.degraded" ];
      let v name = List.assoc name stats.Protocol.rp_counters in
      Alcotest.(check int) "every reply counted, this one included" 5 (v "dca_requests_total");
      Alcotest.(check int) "no error" 0 (v "dca_requests_errors_total");
      Alcotest.(check int) "analyze requests" 4 (v "dca_analyze_requests_total");
      Alcotest.(check int) "per-reply hits" (warm.Protocol.rp_hits + edit.Protocol.rp_hits)
        (v "dca_cache_hits_total");
      Alcotest.(check int) "per-reply misses"
        (cold.Protocol.rp_misses + faulted.Protocol.rp_misses + edit.Protocol.rp_misses)
        (v "dca_cache_misses_total");
      Alcotest.(check int) "cache probes: warm and edit hits" 3 (v "cache.mem_hits");
      Alcotest.(check int) "cache probes: cold and edit misses" 3 (v "cache.misses");
      Alcotest.(check int) "stores: cold and edit" (cold.Protocol.rp_misses + edit.Protocol.rp_misses)
        (v "cache.stores");
      Alcotest.(check int) "one degrade" 1 (v "dca_cache_degraded_total");
      Alcotest.(check int) "resident entries" 3 (v "cache.mem_entries");
      Alcotest.(check int) "nothing in flight after the reply" 0 (v "dca_inflight_requests");
      let h = List.assoc "dca_request_duration_seconds" snap.Metrics.sn_hists in
      Alcotest.(check int) "every reply timed" 5 h.Telemetry.hs_count)

(* An injected crash at the mouth of the analysis pipeline
   ([engine.analyze], via the request's own fault plan) becomes an
   error *reply* with the crash prefix — and the next request runs on a
   clean engine. *)
let test_engine_analyze_crash_is_a_reply () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let rp = Engine.handle engine (analyze_rq ~faults:"engine.analyze@1=raise" (two_funcs 2)) in
      Alcotest.(check bool) "crash is an error reply" false (Protocol.ok rp);
      (match rp.Protocol.rp_error with
      | Some msg -> Alcotest.(check bool) "crash-prefixed message" true (has_prefix "crash:" msg)
      | None -> Alcotest.fail "crash reply carries no message");
      let after = handle_ok engine (analyze_rq (two_funcs 2)) in
      Alcotest.(check int) "next request computes cleanly" 2
        (after.Protocol.rp_hits + after.Protocol.rp_misses))

(* An aborted verdict says nothing about the loop, so it is never
   stored: after the daemon's own plan aborts a loop, the next clean
   request recomputes it and replies exactly what a clean cold run
   does. *)
let test_engine_aborts_never_cached () =
  let rq = analyze_rq ~jobs:1 (two_funcs 2) in
  let clean =
    let engine = Engine.create () in
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () -> report_of (handle_ok engine rq))
  in
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      Faultpoint.arm_string "driver.loop@1=raise";
      let faulted = Fun.protect ~finally:Faultpoint.disarm (fun () -> handle_ok engine rq) in
      Alcotest.(check bool) "the daemon plan aborted a loop" true
        (List.exists is_aborted faulted.Protocol.rp_loops);
      let after = handle_ok engine rq in
      Alcotest.(check int) "the aborted loop was recomputed" 1 after.Protocol.rp_misses;
      Alcotest.(check bool) "no aborted verdict served" false
        (List.exists is_aborted after.Protocol.rp_loops);
      Alcotest.(check string) "identical to a clean cold report" clean (report_of after))

(* A request's plan is scoped to that request: the daemon's own plan
   keeps counting across a fault-carrying request, so its second
   [engine.analyze] hit fires on the second clean request. *)
let test_engine_request_plan_leaves_daemon_plan () =
  let engine = Engine.create () in
  Faultpoint.arm_string "engine.analyze@2=raise";
  Fun.protect
    ~finally:(fun () ->
      Faultpoint.disarm ();
      Engine.close engine)
    (fun () ->
      ignore (handle_ok engine (analyze_rq (two_funcs 2)));
      ignore (handle_ok engine (analyze_rq ~faults:"commutativity.replay@1=raise" (two_funcs 2)));
      let rp = Engine.handle engine (analyze_rq (two_funcs 2)) in
      Alcotest.(check (option string)) "the daemon plan fired on its second hit"
        (Some "crash: injected fault at engine.analyze") rp.Protocol.rp_error)

(* Fault-carrying requests do not exclude others: a clean request
   completes while a faulted one is parked in its injected delay. *)
let test_engine_fault_request_runs_concurrently () =
  let engine = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine)
    (fun () ->
      let parked_done = Atomic.make false in
      let parked =
        Domain.spawn (fun () ->
            let rp =
              Engine.handle engine
                (analyze_rq ~jobs:1 ~faults:"engine.analyze@1=delay:2000" (two_funcs 2))
            in
            Atomic.set parked_done true;
            rp)
      in
      Unix.sleepf 0.2 (* the faulted request is now inside its delay *);
      let clean = handle_ok engine (analyze_rq ~jobs:1 (two_funcs 2)) in
      Alcotest.(check bool) "clean request done while the faulted one is parked" false
        (Atomic.get parked_done);
      Alcotest.(check int) "clean request analyzed every loop" 2
        (clean.Protocol.rp_hits + clean.Protocol.rp_misses);
      Alcotest.(check bool) "the parked request completes" true (Protocol.ok (Domain.join parked)))

(* The serve-plane fault sites exist under their documented names — a
   fault plan naming them is exercising real code, not a typo. *)
let test_fault_sites_registered () =
  let sites = Faultpoint.known_sites () in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " registered") true (List.mem s sites))
    [ "serve.worker"; "engine.analyze"; "vcache.write" ]

(* ------------------------------------------------------------------ *)
(* Socket server                                                       *)
(* ------------------------------------------------------------------ *)

(* Raw-socket access for the tests that need to hold a connection open
   mid-request or feed the daemon bytes no Client would ever send. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let send_line fd line = write_all fd (line ^ "\n")

(* A daemon in its own telemetry context, so its counters are exactly
   this test's. *)
let run_server cfg = snd (in_fresh_ctx (fun () -> Server.run cfg))

(* One daemon on a real Unix-domain socket, driven by the Client module
   from the test process while the server runs in a spawned domain.  A
   line that does not parse still gets a request id, counts as a
   request and an error, and is logged under op "invalid". *)
let test_server_socket () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let access = Filename.concat dir "access.jsonl" in
  (* a stale socket file from a "crashed daemon" must be reclaimed *)
  Unix.close (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0);
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_access_log = Some access;
      sv_jobs = Some 1;
    }
  in
  let server = Domain.spawn (fun () -> run_server cfg) in
  (* readiness = the daemon answers a ping, not just a socket file being
     present (the stale file is there from the start) *)
  let rec wait_ready n =
    if n = 0 then Alcotest.fail "server never became reachable";
    match
      Client.with_client socket (fun c ->
          Client.request c { Protocol.default_request with Protocol.rq_id = 1 })
    with
    | Ok rp -> rp
    | Error _ ->
        Unix.sleepf 0.05;
        wait_ready (n - 1)
  in
  let ping = wait_ready 200 in
  let request rq =
    match Client.with_client socket (fun c -> Client.request c rq) with
    | Ok rp -> rp
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "ping ok" true (Protocol.ok ping);
  Alcotest.(check int) "id echoed" 1 ping.Protocol.rp_id;
  let analyze = { (analyze_rq (two_funcs 2)) with Protocol.rq_id = 2 } in
  let cold = request analyze in
  Alcotest.(check int) "cold misses over the wire" 2 cold.Protocol.rp_misses;
  let warm = request { analyze with Protocol.rq_id = 3 } in
  Alcotest.(check int) "warm hits over the wire" 2 warm.Protocol.rp_hits;
  Alcotest.(check string) "reports identical over the wire" (report_of cold) (report_of warm);
  let bad =
    let fd = raw_connect socket in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        send_line fd "{\"op\":\"frobnicate\"}";
        match Protocol.parse_response (input_line (Unix.in_channel_of_descr fd)) with
        | Ok rp -> rp
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check bool) "malformed line is an error reply" false (Protocol.ok bad);
  Alcotest.(check bool) "malformed line has a request id" true (bad.Protocol.rp_req > 0);
  let stats = request { Protocol.default_request with Protocol.rq_id = 4; rq_op = Protocol.Stats } in
  let counter name = List.assoc name stats.Protocol.rp_counters in
  Alcotest.(check int) "requests counted, the malformed one included" 5
    (counter "dca_requests_total");
  Alcotest.(check int) "the malformed line is the one error" 1
    (counter "dca_requests_errors_total");
  let bye = request { Protocol.default_request with Protocol.rq_id = 5; rq_op = Protocol.Shutdown } in
  Alcotest.(check bool) "shutdown acknowledged" true (Protocol.ok bye);
  let served = Domain.join server in
  Alcotest.(check int) "served all six requests" 6 served;
  Alcotest.(check bool) "socket removed on exit" true (not (Sys.file_exists socket));
  (* access log: one JSON object per request, parseable *)
  let ic = open_in access in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "one access-log line per request" 6 (List.length !lines);
  let entries =
    List.map
      (fun line ->
        match Json.of_string_result line with
        | Ok j ->
            Alcotest.(check bool) "log line has op" true (Json.member "op" j <> None);
            j
        | Error e -> Alcotest.failf "unparseable access-log line: %s" e)
      !lines
  in
  match
    List.find_opt
      (fun j -> Option.bind (Json.member "req" j) Json.to_int_opt = Some bad.Protocol.rp_req)
      entries
  with
  | Some j ->
      Alcotest.(check (option string)) "malformed line logged as invalid" (Some "invalid")
        (Option.bind (Json.member "op" j) Json.to_str_opt);
      Alcotest.(check (option string)) "malformed line logged as an error" (Some "error")
        (Option.bind (Json.member "status" j) Json.to_str_opt)
  | None -> Alcotest.fail "no access-log line carries the malformed line's request id"

(* ------------------------------------------------------------------ *)
(* Concurrent server                                                   *)
(* ------------------------------------------------------------------ *)

let start_server cfg =
  let server = Domain.spawn (fun () -> run_server cfg) in
  let rec wait_ready n =
    if n = 0 then Alcotest.fail "server never became reachable";
    match
      Client.with_client cfg.Server.sv_socket (fun c ->
          Client.request c { Protocol.default_request with Protocol.rq_id = 1 })
    with
    | Ok _ -> ()
    | Error _ ->
        Unix.sleepf 0.05;
        wait_ready (n - 1)
  in
  wait_ready 200;
  server

(* Four persistent connections served at once, mixing warm and cold
   programs: every reply must be byte-identical to a local cold run of
   the same program, the server-assigned request ids must be unique, and
   the stats verb must carry a coherent metrics snapshot. *)
let test_server_concurrent_identical () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  (* local references: what a serial cold analysis replies *)
  let reference source =
    let engine = Engine.create () in
    Fun.protect
      ~finally:(fun () -> Engine.close engine)
      (fun () -> report_of (handle_ok engine (analyze_rq ~jobs:1 source)))
  in
  let sources = [| two_funcs 2; two_funcs 3 |] in
  let refs = Array.map reference sources in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 4 } in
  let server = start_server cfg in
  let clients = 4 and per_client = 4 in
  let client_domain c =
    Domain.spawn (fun () ->
        match
          Client.with_client socket (fun conn ->
              Ok
                (List.init per_client (fun i ->
                     let which = (c + i) mod Array.length sources in
                     let rq =
                       { (analyze_rq ~jobs:1 sources.(which)) with Protocol.rq_id = (c * 100) + i }
                     in
                     match Client.request conn rq with
                     | Ok rp -> (which, rq.Protocol.rq_id, rp)
                     | Error e -> Alcotest.failf "client %d: %s" c e)))
        with
        | Ok replies -> replies
        | Error e -> Alcotest.failf "client %d connect: %s" c e)
  in
  let replies = List.concat_map Domain.join (List.init clients client_domain) in
  Alcotest.(check int) "every request answered" (clients * per_client) (List.length replies);
  List.iter
    (fun (which, id, rp) ->
      Alcotest.(check bool) "reply ok" true (Protocol.ok rp);
      Alcotest.(check int) "id echoed" id rp.Protocol.rp_id;
      Alcotest.(check string) "byte-identical to the serial reference" refs.(which)
        (report_of rp))
    replies;
  let req_ids = List.map (fun (_, _, rp) -> rp.Protocol.rp_req) replies in
  Alcotest.(check bool) "request ids assigned" true (List.for_all (fun r -> r > 0) req_ids);
  Alcotest.(check int) "request ids unique" (List.length req_ids)
    (List.length (List.sort_uniq compare req_ids));
  (* the stats verb carries the metrics plane *)
  let stats =
    match
      Client.with_client socket (fun c ->
          Client.request c { Protocol.default_request with Protocol.rq_id = 999; rq_op = Protocol.Stats })
    with
    | Ok rp -> rp
    | Error e -> Alcotest.fail e
  in
  let snap =
    match stats.Protocol.rp_metrics with
    | Some j -> (
        match Metrics.snapshot_of_json j with
        | Ok s -> s
        | Error e -> Alcotest.failf "bad metrics payload: %s" e)
    | None -> Alcotest.fail "stats reply carries no metrics"
  in
  let analyzed = clients * per_client in
  Alcotest.(check bool) "requests_total covers the analyzes" true
    (List.assoc "dca_requests_total" snap.Metrics.sn_counters > analyzed);
  Alcotest.(check int) "cache hits + misses = analyzed loops" (2 * analyzed)
    (List.assoc "dca_cache_hits_total" snap.Metrics.sn_counters
    + List.assoc "dca_cache_misses_total" snap.Metrics.sn_counters);
  let h = List.assoc "dca_request_duration_seconds" snap.Metrics.sn_hists in
  Alcotest.(check bool) "latency histogram populated" true (h.Telemetry.hs_count >= analyzed);
  Alcotest.(check bool) "inflight gauge present" true
    (List.mem_assoc "dca_inflight_requests" snap.Metrics.sn_gauges);
  (match
     Client.with_client socket (fun c ->
         Client.request c { Protocol.default_request with Protocol.rq_id = 1000; rq_op = Protocol.Shutdown })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  ignore (Domain.join server)

(* --max-requests under concurrency: with four clients racing for the
   tail of an 8-request budget, the daemon serves exactly 8 — replies
   received and Server.run's count agree. *)
let test_server_max_requests_concurrent () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let budget = 8 in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 3;
      sv_max_requests = Some budget;
    }
  in
  let server = start_server cfg in
  (* the readiness ping spent one slot; the clients fight over the rest *)
  let ping = { Protocol.default_request with Protocol.rq_id = 7 } in
  let client_domain _ =
    Domain.spawn (fun () ->
        let rec go acc =
          match Client.with_client socket (fun c -> Client.request c ping) with
          | Ok rp when Protocol.ok rp -> go (acc + 1)
          | Ok _ | Error _ -> acc
        in
        go 0)
  in
  let got = List.map Domain.join (List.init 4 client_domain) in
  let served = Domain.join server in
  Alcotest.(check int) "daemon served exactly the budget" budget served;
  Alcotest.(check int) "clients saw exactly the budget" budget
    (1 + List.fold_left ( + ) 0 got)

(* ------------------------------------------------------------------ *)
(* Self-healing serve plane                                            *)
(* ------------------------------------------------------------------ *)

(* Busy-tolerant helpers: right after an overload or crash scenario the
   queue may still hold corpses of closed connections, so a fresh
   request can be shed — the retry layer is exactly the cure. *)
let test_backoff = { Client.default_backoff with Client.bo_attempts = 10; bo_base_ms = 50. }

let request_stats socket =
  match
    Client.request_retry ~backoff:test_backoff socket
      { Protocol.default_request with Protocol.rq_id = 900; rq_op = Protocol.Stats }
  with
  | Ok rp when Protocol.ok rp -> rp
  | Ok rp -> Alcotest.failf "stats request refused: %s" (Option.value rp.Protocol.rp_error ~default:"?")
  | Error e -> Alcotest.fail e

let metrics_counter rp name =
  match rp.Protocol.rp_metrics with
  | Some j -> (
      match Metrics.snapshot_of_json j with
      | Ok s -> List.assoc name s.Metrics.sn_counters
      | Error e -> Alcotest.failf "bad metrics payload: %s" e)
  | None -> Alcotest.fail "stats reply carries no metrics"

let request_shutdown socket =
  match
    Client.request_retry ~backoff:test_backoff socket
      { Protocol.default_request with Protocol.rq_id = 901; rq_op = Protocol.Shutdown }
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* Server.run removes its socket on the way out: poll for that for at
   most five seconds rather than join a daemon that may never stop. *)
let daemon_stops socket =
  let rec poll n =
    (not (Sys.file_exists socket))
    || n > 0
       && begin
            Unix.sleepf 0.02;
            poll (n - 1)
          end
  in
  poll 250

(* Overload shedding: with one worker held mid-request (an injected
   engine delay) and a queue bound of one, a third connection gets an
   immediate [busy] line and a close — while the held request still
   completes normally. *)
let test_server_sheds_when_overloaded () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 1;
      sv_max_queue = 1;
    }
  in
  let server = start_server cfg in
  let slow =
    { (analyze_rq ~faults:"engine.analyze@1=delay:600" (two_funcs 2)) with Protocol.rq_id = 11 }
  in
  let fd_a = raw_connect socket in
  send_line fd_a (Protocol.request_line slow);
  Unix.sleepf 0.2 (* the only worker is now busy inside the delay *);
  let fd_b = raw_connect socket in
  Unix.sleepf 0.1 (* b sits in the queue, filling it *);
  let fd_c = raw_connect socket in
  let ic_c = Unix.in_channel_of_descr fd_c in
  (match Protocol.parse_response (input_line ic_c) with
  | Ok rp ->
      Alcotest.(check bool) "shed reply is busy" true (rp.Protocol.rp_status = Protocol.Busy);
      Alcotest.(check bool) "overload message" true
        (match rp.Protocol.rp_error with
        | Some m -> has_prefix "server overloaded" m
        | None -> false)
  | Error e -> Alcotest.fail e);
  (match input_line ic_c with
  | _ -> Alcotest.fail "shed connection not closed"
  | exception End_of_file -> ());
  let ic_a = Unix.in_channel_of_descr fd_a in
  (match Protocol.parse_response (input_line ic_a) with
  | Ok rp -> Alcotest.(check bool) "held request still replied ok" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  Unix.close fd_a;
  Unix.close fd_b;
  Unix.close fd_c;
  let stats = request_stats socket in
  Alcotest.(check bool) "shed counted" true (metrics_counter stats "dca_requests_shed_total" >= 1);
  request_shutdown socket;
  ignore (Domain.join server)

(* Request timeout: the watchdog replaces an overdue reply with a
   structured error and shuts the connection; the engine call finishes
   on its own time and the daemon keeps serving. *)
let test_server_request_timeout () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 1;
      sv_request_timeout_ms = Some 100;
    }
  in
  let server = start_server cfg in
  let slow =
    { (analyze_rq ~faults:"engine.analyze@1=delay:700" (two_funcs 2)) with Protocol.rq_id = 21 }
  in
  let fd = raw_connect socket in
  send_line fd (Protocol.request_line slow);
  let ic = Unix.in_channel_of_descr fd in
  (match Protocol.parse_response (input_line ic) with
  | Ok rp ->
      Alcotest.(check bool) "timeout reply is an error" false (Protocol.ok rp);
      Alcotest.(check int) "timeout reply echoes the id" 21 rp.Protocol.rp_id;
      Alcotest.(check bool) "structured timeout message" true
        (match rp.Protocol.rp_error with
        | Some m -> has_prefix "request timed out after 100 ms" m
        | None -> false)
  | Error e -> Alcotest.fail e);
  (match input_line ic with
  | _ -> Alcotest.fail "timed-out connection not closed"
  | exception End_of_file -> ());
  Unix.close fd;
  (* the worker finishes the delayed engine call and serves on *)
  (match
     Client.with_client socket (fun c ->
         Client.request c { Protocol.default_request with Protocol.rq_id = 22 })
   with
  | Ok rp -> Alcotest.(check bool) "daemon alive after timeout" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  let stats = request_stats socket in
  Alcotest.(check bool) "timeout counted" true
    (metrics_counter stats "dca_requests_timeout_total" >= 1);
  request_shutdown socket;
  ignore (Domain.join server)

(* One writer per reply: once the watchdog has claimed an overdue
   request, the worker that finishes it later loses its claim — it
   sends nothing and logs the request as timed out, not as served. *)
let test_server_timeout_has_one_writer () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let access = Filename.concat dir "access.jsonl" in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 1;
      sv_request_timeout_ms = Some 100;
      sv_access_log = Some access;
    }
  in
  let server = start_server cfg in
  let slow =
    { (analyze_rq ~faults:"engine.analyze@1=delay:400" (two_funcs 2)) with Protocol.rq_id = 25 }
  in
  let fd = raw_connect socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  send_line fd (Protocol.request_line slow);
  let ic = Unix.in_channel_of_descr fd in
  (match Protocol.parse_response (input_line ic) with
  | Ok rp -> Alcotest.(check bool) "the watchdog replied" false (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  Unix.close fd;
  (* the drain waits for the worker to finish the delayed engine call *)
  request_shutdown socket;
  ignore (Domain.join server);
  let status =
    In_channel.with_open_bin access In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match Json.of_string_result line with
           | Ok j when Option.bind (Json.member "id" j) Json.to_int_opt = Some 25 ->
               Option.bind (Json.member "status" j) Json.to_str_opt
           | _ -> None)
  in
  Alcotest.(check (option string)) "the worker lost its claim" (Some "timeout") status

(* Worker crash recovery: an injected [serve.worker] crash busy-replies
   the in-flight request and the same worker domain — the only one —
   takes the next connection, twice in a row; a retrying client
   converges to the normal reply on its third attempt, and each crashed
   request still consumed its budget slot. *)
let test_server_worker_crash_recovers () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 1 } in
  let server = start_server cfg in
  Faultpoint.arm_string "serve.worker@1=raise;serve.worker@2=raise";
  Fun.protect
    ~finally:Faultpoint.disarm
    (fun () ->
      let backoff =
        { Client.default_backoff with Client.bo_attempts = 8; bo_base_ms = 100.; bo_seed = 1 }
      in
      let rq = { (analyze_rq (two_funcs 2)) with Protocol.rq_id = 31 } in
      match Client.request_retry ~backoff socket rq with
      | Ok rp ->
          Alcotest.(check bool) "retry converged to ok" true (Protocol.ok rp);
          Alcotest.(check int) "nothing was cached by the crashed attempts" 2
            rp.Protocol.rp_misses
      | Error e -> Alcotest.fail e);
  let stats = request_stats socket in
  Alcotest.(check int) "one restart per crash" 2
    (metrics_counter stats "dca_worker_restarts_total");
  request_shutdown socket;
  let served = Domain.join server in
  (* ready ping + two crashed attempts + retried analyze + stats + shutdown *)
  Alcotest.(check int) "crashed requests consumed their slots" 6 served

(* --max-requests accounting across a crash: ok and busy replies
   together exhaust the budget exactly, and Server.run agrees. *)
let test_server_max_requests_with_crash () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let budget = 6 in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 2;
      sv_max_requests = Some budget;
    }
  in
  let server = start_server cfg in
  (* the readiness ping took slot 1; the third post-arm request crashes *)
  Faultpoint.arm_string "serve.worker@3=raise";
  let ok = ref 0 and busy = ref 0 in
  Fun.protect
    ~finally:Faultpoint.disarm
    (fun () ->
      for i = 2 to budget do
        match
          Client.with_client socket (fun c ->
              Client.request c { Protocol.default_request with Protocol.rq_id = i })
        with
        | Ok rp when Protocol.ok rp -> incr ok
        | Ok rp when rp.Protocol.rp_status = Protocol.Busy -> incr busy
        | Ok _ -> Alcotest.fail "unexpected error reply"
        | Error e -> Alcotest.failf "request %d: %s" i e
      done);
  let served = Domain.join server in
  Alcotest.(check int) "daemon served exactly the budget" budget served;
  Alcotest.(check int) "one crash became a busy reply" 1 !busy;
  Alcotest.(check int) "every other request was served" (budget - 2) !ok

(* An access log that cannot be written (/dev/full fails every write
   with ENOSPC, even for root) is reported once and otherwise ignored:
   both requests on one connection are answered, only an injected crash
   counts as one and the request after it is served, and a shutdown
   request still ends the daemon.  Every read is bounded, so a daemon
   that stops answering fails the test instead of hanging it. *)
let test_server_unwritable_access_log () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 1;
      sv_access_log = Some "/dev/full";
    }
  in
  let server = start_server cfg in
  let ask fd ic rq =
    match
      send_line fd (Protocol.request_line rq);
      Protocol.parse_response (input_line ic)
    with
    | Ok rp -> rp
    | Error e -> Alcotest.fail e
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
        Alcotest.failf "request %d got no reply" rq.Protocol.rq_id
  in
  let with_conn f =
    let fd = raw_connect socket in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> f (ask fd (Unix.in_channel_of_descr fd)))
  in
  let request ?(op = Protocol.Ping) id =
    with_conn (fun ask -> ask { Protocol.default_request with Protocol.rq_id = id; rq_op = op })
  in
  let restarts () = metrics_counter (request ~op:Protocol.Stats 0) "dca_worker_restarts_total" in
  with_conn (fun ask ->
      List.iter
        (fun id ->
          let rp = ask { Protocol.default_request with Protocol.rq_id = id } in
          Alcotest.(check bool) (Printf.sprintf "request %d on one connection answered" id) true
            (Protocol.ok rp))
        [ 2; 3 ]);
  Alcotest.(check int) "a failing log is not a crash" 0 (restarts ());
  Faultpoint.arm_string "serve.worker@1=raise";
  let crashed = Fun.protect ~finally:Faultpoint.disarm (fun () -> request 4) in
  Alcotest.(check bool) "the crashed request is busy" true
    (crashed.Protocol.rp_status = Protocol.Busy);
  Alcotest.(check bool) "the request after the crash is served" true (Protocol.ok (request 5));
  Alcotest.(check int) "the injected crash is the one restart" 1 (restarts ());
  Alcotest.(check bool) "shutdown acknowledged" true
    (Protocol.ok (request ~op:Protocol.Shutdown 6));
  if not (daemon_stops socket) then Alcotest.fail "a shutdown request did not end Server.run";
  (* ready ping + two pings + stats + crashed + served + stats + shutdown *)
  Alcotest.(check int) "every request counted" 8 (Domain.join server)

(* A path that is not a socket is never reclaimed: a regular file where
   the socket should go is left intact, and [bind] fails with
   [EADDRINUSE] (the CLI's "cannot listen on PATH").  A daemon that
   comes up over the file anyway is shut down before the test fails. *)
let test_server_keeps_foreign_file () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let content = "notes, not a socket\n" in
  Out_channel.with_open_bin socket (fun oc -> output_string oc content);
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 1 } in
  let outcome = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        Atomic.set outcome (Some (match run_server cfg with n -> Ok n | exception e -> Error e)))
  in
  let is_socket () =
    match Unix.lstat socket with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> true
    | _ | (exception Unix.Unix_error _) -> false
  in
  let rec settle n =
    match Atomic.get outcome with
    | Some r -> r
    | None when is_socket () ->
        request_shutdown socket;
        ignore (Domain.join server);
        Alcotest.fail "the daemon replaced a regular file with its socket"
    | None when n = 0 -> Alcotest.fail "Server.run neither failed nor bound"
    | None ->
        Unix.sleepf 0.02;
        settle (n - 1)
  in
  (match settle 250 with
  | Error (Unix.Unix_error (Unix.EADDRINUSE, "bind", _)) -> ()
  | Error e -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the daemon served over a regular file");
  ignore (Domain.join server);
  Alcotest.(check string) "the file is intact" content
    (In_channel.with_open_bin socket In_channel.input_all)

(* Graceful drain: SIGTERM mid-request stops admissions, lets the
   in-flight request finish, removes the socket, and Server.run returns
   normally. *)
let test_server_sigterm_drains () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg =
    {
      (Server.default_config socket) with
      Server.sv_jobs = Some 1;
      sv_workers = 1;
      sv_handle_signals = true;
    }
  in
  let server = start_server cfg in
  let slow =
    { (analyze_rq ~faults:"engine.analyze@1=delay:400" (two_funcs 2)) with Protocol.rq_id = 41 }
  in
  let fd = raw_connect socket in
  send_line fd (Protocol.request_line slow);
  Unix.sleepf 0.15 (* the request is in flight *);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let ic = Unix.in_channel_of_descr fd in
  (match Protocol.parse_response (input_line ic) with
  | Ok rp -> Alcotest.(check bool) "in-flight request finished" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  Unix.close fd;
  let served = Domain.join server in
  Alcotest.(check int) "ready ping + drained request" 2 served;
  Alcotest.(check bool) "socket removed on drain" true (not (Sys.file_exists socket))

(* A persistent connection left idle after its reply does not hold a
   [shutdown] to the drain timeout: stopping read-shuts every active
   connection, so the worker parked on it sees end-of-file. *)
let test_server_idle_connection_stops () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 2 } in
  let server = start_server cfg in
  let idle = raw_connect socket in
  Unix.setsockopt_float idle Unix.SO_RCVTIMEO 5.0;
  send_line idle (Protocol.request_line { Protocol.default_request with Protocol.rq_id = 47 });
  ignore (input_line (Unix.in_channel_of_descr idle));
  request_shutdown socket;
  let stopped = daemon_stops socket in
  Unix.close idle;
  ignore (Domain.join server);
  Alcotest.(check bool) "Server.run ended with a connection still open" true stopped

(* A client that hangs up before its reply is written leaves the daemon
   standing: the write fails with EPIPE, which the reply path swallows,
   instead of a SIGPIPE killing the process. *)
let test_server_client_hangup () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 1 } in
  let server = start_server cfg in
  let slow =
    { (analyze_rq ~faults:"engine.analyze@1=delay:200" (two_funcs 2)) with Protocol.rq_id = 45 }
  in
  let fd = raw_connect socket in
  send_line fd (Protocol.request_line slow);
  Unix.close fd;
  (* the ping queues behind the slow request, whose reply finds no reader *)
  (match
     Client.with_client socket (fun c ->
         Client.request c { Protocol.default_request with Protocol.rq_id = 46 })
   with
  | Ok rp -> Alcotest.(check bool) "daemon alive after a hang-up" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  request_shutdown socket;
  ignore (Domain.join server)

(* Protocol hardening: seeded garbage over a real socket — malformed,
   truncated, oversized, binary — must always produce an error reply or
   a clean close, never a dead or hung daemon. *)
let test_server_survives_fuzzed_input () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 2 } in
  let server = start_server cfg in
  let rng = Prng.create 20260809 in
  let garbage_line () =
    String.init (1 + Prng.int rng 80) (fun _ -> Char.chr (32 + Prng.int rng 95)) ^ "\n"
  in
  let binary_line () = String.init (1 + Prng.int rng 64) (fun _ -> Char.chr (Prng.int rng 256)) in
  let payload i =
    match i mod 6 with
    | 0 -> garbage_line ()
    | 1 -> "123\n" (* valid JSON, not an object *)
    | 2 -> "{\"op\":\"frobnicate\"}\n" (* unknown op *)
    | 3 -> "{\"op\":\"ana" (* truncated mid-token, no newline *)
    | 4 -> String.make 262144 'a' ^ "\n" (* one oversized line *)
    | _ -> binary_line ()
  in
  for i = 0 to 23 do
    let fd = raw_connect socket in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    write_all fd (payload i);
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    (* the daemon must error-reply and/or close — never leave us hanging *)
    let buf = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.failf "fuzz payload %d: daemon neither replied nor closed" i
    in
    drain ();
    Unix.close fd
  done;
  (* still standing, still serving *)
  (match
     Client.with_client socket (fun c ->
         Client.request c { Protocol.default_request with Protocol.rq_id = 51 })
   with
  | Ok rp -> Alcotest.(check bool) "daemon alive after fuzzing" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  request_shutdown socket;
  ignore (Domain.join server)

(* ------------------------------------------------------------------ *)
(* Client retry/backoff                                                *)
(* ------------------------------------------------------------------ *)

let test_client_backoff_schedule () =
  let b = { Client.bo_attempts = 6; bo_base_ms = 50.; bo_cap_ms = 2000.; bo_seed = 42 } in
  let d1 = Client.backoff_schedule b in
  let d2 = Client.backoff_schedule b in
  Alcotest.(check bool) "equal seeds, equal schedules" true (d1 = d2);
  Alcotest.(check bool) "different seeds decorrelate" false
    (d1 = Client.backoff_schedule { b with Client.bo_seed = 43 });
  Alcotest.(check int) "one delay per retry" (b.Client.bo_attempts - 1) (Array.length d1);
  Array.iteri
    (fun k d ->
      let ideal = Float.min b.Client.bo_cap_ms (b.Client.bo_base_ms *. (2. ** float_of_int k)) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within the jitter band" k)
        true
        (d >= 0.5 *. ideal && d <= ideal))
    d1;
  (* the cap bounds the tail even for absurd attempt counts *)
  let long = Client.backoff_schedule { b with Client.bo_attempts = 12 } in
  Array.iter (fun d -> Alcotest.(check bool) "capped" true (d <= b.Client.bo_cap_ms)) long

(* request_retry keeps knocking while the daemon is still coming up:
   connect-refused is retryable, and the eventual reply is a normal
   one. *)
let test_client_retry_waits_for_daemon () =
  let dir = fresh_dir "server" in
  let socket = Filename.concat dir "dca.sock" in
  let cfg = { (Server.default_config socket) with Server.sv_jobs = Some 1; sv_workers = 1 } in
  let server =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3 (* the daemon is late to the party *);
        run_server cfg)
  in
  let backoff =
    { Client.default_backoff with Client.bo_attempts = 20; bo_base_ms = 60.; bo_seed = 7 }
  in
  (match Client.request_retry ~backoff socket { Protocol.default_request with Protocol.rq_id = 61 } with
  | Ok rp -> Alcotest.(check bool) "retry outlasted the slow start" true (Protocol.ok rp)
  | Error e -> Alcotest.fail e);
  request_shutdown socket;
  ignore (Domain.join server)

(* ------------------------------------------------------------------ *)
(* Session.Options                                                     *)
(* ------------------------------------------------------------------ *)

let test_options_setters () =
  let open Session.Options in
  let o = default |> with_jobs 4 |> with_hierarchical true |> with_deadline_ms 250 in
  Alcotest.(check bool) "jobs set" true (o.jobs = Some 4);
  Alcotest.(check bool) "hierarchical set" true o.hierarchical;
  Alcotest.(check bool) "deadline set" true (o.deadline_ms = Some 250);
  Alcotest.(check bool) "others keep their defaults" true
    (o.config = None && o.spec = None && o.heap_words = None && o.static)

(* Per-session telemetry: a session's delta covers its own work only;
   the global snapshot keeps accumulating across sessions. *)
let test_options_telemetry_delta () =
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_counting was)
    (fun () ->
      let bm = Dca_progs.Registry.find_exn "DC" in
      let options = Session.Options.(default |> with_jobs 1) in
      let first =
        Session.with_session ~options (Session.Benchmark bm) (fun s ->
            ignore (Session.dca_results s);
            Session.telemetry s)
      in
      let golden1 = List.assoc "dca.golden_runs" first in
      Alcotest.(check bool) "first session saw its work" true (golden1 > 0);
      Session.with_session ~options (Session.Benchmark bm) (fun s ->
          ignore (Session.dca_results s);
          let second = Session.telemetry s in
          Alcotest.(check int) "second session sees only its own work" golden1
            (List.assoc "dca.golden_runs" second);
          let global =
            List.assoc "dca.golden_runs" (Telemetry.Ctx.counters Telemetry.Ctx.global)
          in
          Alcotest.(check bool) "global snapshot accumulates" true (global >= 2 * golden1)))

let suites =
  [
    ( "serve.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_protocol_request_roundtrip;
        Alcotest.test_case "request validation" `Quick test_protocol_request_rejects;
        Alcotest.test_case "response round-trip" `Quick test_protocol_response_roundtrip;
        Alcotest.test_case "status wire semantics" `Quick test_protocol_status;
      ] );
    ( "serve.digest",
      [
        Alcotest.test_case "stable across formatting" `Quick test_digest_formatting_stable;
        Alcotest.test_case "per-function edit granularity" `Quick test_digest_edit_granularity;
      ] );
    ( "serve.vcache",
      [
        Alcotest.test_case "memory LRU" `Quick test_vcache_memory;
        Alcotest.test_case "disk persistence" `Quick test_vcache_disk_persistence;
        Alcotest.test_case "corruption degrades to recompute" `Quick test_vcache_corruption_degrades;
        Alcotest.test_case "escalated entries pinned to program" `Quick test_vcache_escalated_pinned;
        Alcotest.test_case "stats exact under concurrency" `Quick test_vcache_concurrent_stats_exact;
        Alcotest.test_case "write failure degrades to memory" `Quick
          test_vcache_write_failure_degrades;
      ] );
    ( "serve.metrics",
      [
        Alcotest.test_case "families and buckets" `Quick test_metrics_families_and_buckets;
        Alcotest.test_case "JSON round-trip and exposition" `Quick
          test_metrics_json_roundtrip_and_exposition;
        Alcotest.test_case "latency quantiles" `Quick test_metrics_quantiles;
      ] );
    ( "serve.engine",
      [
        Alcotest.test_case "cold then warm" `Quick test_engine_cold_then_warm;
        Alcotest.test_case "invalidation granularity" `Quick test_engine_invalidation_granularity;
        Alcotest.test_case "jobs-invariant replies" `Quick test_engine_jobs_invariant_replies;
        Alcotest.test_case "corrupt entry recomputes" `Quick test_engine_corrupt_entry_recomputes;
        Alcotest.test_case "fault request contained" `Quick test_engine_fault_request_contained;
        Alcotest.test_case "errors are replies" `Quick test_engine_errors;
        Alcotest.test_case "degraded cache still serves" `Quick
          test_engine_degraded_cache_still_serves;
        Alcotest.test_case "one counter registry" `Quick test_engine_one_registry;
        Alcotest.test_case "analyze crash is a reply" `Quick test_engine_analyze_crash_is_a_reply;
        Alcotest.test_case "aborts never cached" `Quick test_engine_aborts_never_cached;
        Alcotest.test_case "request plan leaves the daemon plan" `Quick
          test_engine_request_plan_leaves_daemon_plan;
        Alcotest.test_case "fault request runs concurrently" `Quick
          test_engine_fault_request_runs_concurrently;
        Alcotest.test_case "serve fault sites registered" `Quick test_fault_sites_registered;
        Alcotest.test_case "first hit after an edit" `Quick test_engine_first_hit_after_edit;
        Alcotest.test_case "all hits analyse no function" `Quick
          test_engine_all_hits_analyse_nothing;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "socket round-trip" `Quick test_server_socket;
        Alcotest.test_case "concurrent connections, identical replies" `Quick
          test_server_concurrent_identical;
        Alcotest.test_case "max-requests exact under concurrency" `Quick
          test_server_max_requests_concurrent;
        Alcotest.test_case "sheds when overloaded" `Quick test_server_sheds_when_overloaded;
        Alcotest.test_case "request timeout" `Quick test_server_request_timeout;
        Alcotest.test_case "timeout has one writer" `Quick test_server_timeout_has_one_writer;
        Alcotest.test_case "worker crash recovers in place" `Quick
          test_server_worker_crash_recovers;
        Alcotest.test_case "max-requests exact across a crash" `Quick
          test_server_max_requests_with_crash;
        Alcotest.test_case "unwritable access log is not a crash" `Quick
          test_server_unwritable_access_log;
        Alcotest.test_case "foreign file at the socket path kept" `Quick
          test_server_keeps_foreign_file;
        Alcotest.test_case "SIGTERM drains gracefully" `Quick test_server_sigterm_drains;
        Alcotest.test_case "idle connection does not hold a shutdown" `Quick
          test_server_idle_connection_stops;
        Alcotest.test_case "client hang-up mid-request" `Quick test_server_client_hangup;
        Alcotest.test_case "survives fuzzed input" `Quick test_server_survives_fuzzed_input;
      ] );
    ( "serve.client",
      [
        Alcotest.test_case "backoff schedule deterministic" `Quick test_client_backoff_schedule;
        Alcotest.test_case "retry waits for a slow daemon" `Quick
          test_client_retry_waits_for_daemon;
      ] );
    ( "serve.options",
      [
        Alcotest.test_case "setters" `Quick test_options_setters;
        Alcotest.test_case "per-session telemetry delta" `Quick test_options_telemetry_delta;
      ] );
  ]

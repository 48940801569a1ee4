(* Tests for the static affine pre-pass (Staticproof) and its
   integration: prover verdicts on canonical shapes, corpus replay with
   asserted provenance, report rendering, the jobs-invariance of the new
   counters, the cache-versioning of the static flag, the full-registry
   static-on/off A/B, and a small static-xcheck fuzz sweep. *)

module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Commutativity = Dca_core.Commutativity
module Report = Dca_core.Report
module Telemetry = Dca_support.Telemetry
module Proginfo = Dca_analysis.Proginfo
module Loops = Dca_analysis.Loops
module Staticproof = Dca_analysis.Staticproof
module Registry = Dca_progs.Registry
module Benchmark = Dca_progs.Benchmark
module Fuzz_driver = Dca_gen.Fuzz_driver

(* ------------------------------------------------------------------ *)
(* Prover unit tests on canonical shapes                               *)
(* ------------------------------------------------------------------ *)

(* Prove the unique top-level loop of [main]. *)
let prove_main_loop src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "main" in
  match Loops.top_level fi.Proginfo.fi_forest with
  | [ loop ] -> Staticproof.prove info fi loop
  | ls -> Alcotest.failf "expected 1 top-level loop, got %d" (List.length ls)

let kind_of = function
  | Staticproof.Proved _ -> "proved"
  | Staticproof.Fission _ -> "fission"
  | Staticproof.Bail _ -> "bail"

let check_kind name expected src =
  Alcotest.(check string) name expected (kind_of (prove_main_loop src))

let test_prover_shapes () =
  (* own-cell map: the bread-and-butter proof *)
  check_kind "map loop proved" "proved"
    "int a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i * 2; } }";
  (* integer sum reduction discharges as a scalar obligation *)
  check_kind "int reduction proved" "proved"
    {|int a[16]; void main() {
        int i; int s = 0;
        for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
        printi(s); }|};
  (* float reduction reassociates inexactly: no proof *)
  check_kind "float reduction bails" "bail"
    {|float a[16]; void main() {
        int i; float s = 0.0;
        for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
        print(s); }|};
  (* user call: callee effects are not analyzed *)
  check_kind "user call bails" "bail"
    {|int a[16];
      int f(int x) { return x + 1; }
      void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = f(i); } }|};
  (* distance-1 carried dependence *)
  check_kind "carried dep bails" "bail"
    {|int a[16]; void main() {
        int i;
        for (i = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } }|};
  (* indirect subscript *)
  check_kind "indirect store bails" "bail"
    {|int a[16]; int k[16]; void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) { a[k[i]] = i; } }|};
  (* provable map + unprovable histogram: a fission opportunity *)
  check_kind "half-provable body fissions" "fission"
    {|int a[16]; int h[16]; int k[16]; void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) {
          a[i] = i * 3;
          h[k[i]] = h[k[i]] + 1;
        } }|};
  (* proved store feeding off a residual-group load: fission blocked *)
  check_kind "residual-fed store blocks fission" "bail"
    {|int a[16]; int h[16]; int k[16]; void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) {
          h[k[i]] = h[k[i]] + 1;
          a[i] = h[k[i]];
        } }|}

(* ------------------------------------------------------------------ *)
(* Corpus replay with asserted verdict + provenance                    *)
(* ------------------------------------------------------------------ *)

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The marked loop starts on the line after the DCA_FUZZ_LOOP marker;
   its result label is "main:<line>(..." — the fuzz driver's convention. *)
let marked_label_prefix source =
  let lines = String.split_on_char '\n' source in
  let rec find n = function
    | [] -> Alcotest.fail "no DCA_FUZZ_LOOP marker"
    | l :: rest ->
        if contains_sub l "DCA_FUZZ_LOOP" then Printf.sprintf "main:%d(" (n + 1)
        else find (n + 1) rest
  in
  find 1 lines

let marked_result source results =
  let prefix = marked_label_prefix source in
  let plen = String.length prefix in
  List.find_opt
    (fun (r : Driver.loop_result) ->
      String.length r.Driver.lr_label >= plen && String.sub r.Driver.lr_label 0 plen = prefix)
    results

let run_static_corpus name =
  let path = Filename.concat (corpus_dir ()) name in
  let source = read_file path in
  let results =
    Session.with_session
      ~options:Session.Options.(default |> with_jobs 1)
      (Session.Source { file = name; source; input = [] })
      Session.dca_results
  in
  match marked_result source results with
  | Some r -> r
  | None -> Alcotest.failf "%s: marked loop not found" name

let check_marked name expected_decision expected_prov =
  let r = run_static_corpus name in
  let d = Driver.decision_to_string r.Driver.lr_decision in
  let prefix_ok =
    String.length d >= String.length expected_decision
    && String.sub d 0 (String.length expected_decision) = expected_decision
  in
  if not prefix_ok then Alcotest.failf "%s: expected %s, got %s" name expected_decision d;
  Alcotest.(check bool)
    (name ^ " provenance")
    true
    (r.Driver.lr_provenance = expected_prov)

let test_corpus_alias_samecell () =
  check_marked "static_alias_samecell.mc" "non-commutative" Driver.Dynamic

let test_corpus_wraparound () = check_marked "static_wraparound.mc" "commutative" Driver.Dynamic
let test_corpus_condwrite () = check_marked "static_condwrite.mc" "commutative" Driver.Static

let test_corpus_halfreduction () =
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  let fission = Telemetry.counter "dca.static-fission" in
  let before = Telemetry.value fission in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_counting was)
    (fun () ->
      check_marked "static_halfreduction.mc" "commutative" Driver.Dynamic;
      Alcotest.(check bool) "fission counter ticked" true (Telemetry.value fission > before))

(* ------------------------------------------------------------------ *)
(* Report rendering and Dynamic-only byte-stability                    *)
(* ------------------------------------------------------------------ *)

let report_of ?(static = true) source =
  Session.with_session
    ~options:Session.Options.(default |> with_jobs 1 |> with_static static)
    (Session.Source { file = "t.mc"; source; input = [] })
    Session.report

let test_report_static_marker () =
  let src = "int a[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i; } }" in
  let on = report_of src in
  Alcotest.(check bool) "proved loop renders [static]" true (contains_sub on "[static]");
  let off = report_of ~static:false src in
  Alcotest.(check bool) "prover off renders no [static]" false (contains_sub off "[static]");
  Alcotest.(check bool) "dynamic line keeps invocation marker" true (contains_sub off "[tested")

(* A program whose only loop is unprovable (indirect histogram): every
   verdict is Dynamic, so enabling the prover must not move a byte. *)
let test_report_dynamic_only_stable () =
  let src =
    {|int h[8]; int k[8]; void main() {
        int i;
        for (i = 0; i < 8; i = i + 1) { h[k[i]] = h[k[i]] + 1; }
        printi(h[0]); }|}
  in
  Alcotest.(check string) "dynamic-only report byte-identical" (report_of ~static:false src)
    (report_of src)

(* ------------------------------------------------------------------ *)
(* Counter determinism across job counts                               *)
(* ------------------------------------------------------------------ *)

let static_counters = [ "dca.static-proved"; "dca.static-fission"; "dca.static-bailouts" ]

let session_static_deltas bm jobs =
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_counting was)
    (fun () ->
      let deltas =
        Session.with_session
          ~options:Session.Options.(default |> with_jobs jobs)
          (Session.Benchmark bm) (fun s ->
            ignore (Session.report s);
            Session.telemetry s)
      in
      List.map
        (fun name -> (name, match List.assoc_opt name deltas with Some v -> v | None -> 0))
        static_counters)

let test_counters_jobs_invariant () =
  let bm = Registry.find_exn "EP" in
  let j1 = session_static_deltas bm 1 in
  let j4 = session_static_deltas bm 4 in
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) (name ^ " j1=j4") a b)
    j1 j4;
  Alcotest.(check bool) "prover did some work" true
    (List.exists (fun (_, v) -> v > 0) j1)

(* ------------------------------------------------------------------ *)
(* Cache versioning of the static flag                                 *)
(* ------------------------------------------------------------------ *)

let test_config_digest_static_versioned () =
  let c = Commutativity.default_config in
  let on = Dca_serve.Progdigest.config_digest ~hierarchical:false ~static:true c in
  let off = Dca_serve.Progdigest.config_digest ~hierarchical:false ~static:false c in
  let default = Dca_serve.Progdigest.config_digest ~hierarchical:false c in
  Alcotest.(check bool) "static on/off digests differ" true (on <> off);
  Alcotest.(check string) "static defaults on" on default

(* ------------------------------------------------------------------ *)
(* Registry A/B: prover on vs off                                      *)
(* ------------------------------------------------------------------ *)

let light_config =
  {
    Commutativity.default_config with
    Commutativity.cc_schedules = Dca_core.Schedule.presets ~shuffles:1 ();
    cc_max_invocations = 2;
  }

type ab = {
  ab_rows : (string * string * Driver.provenance) list;
  ab_plan : string;
  ab_golden : int;
}

let analyze_ab bm static =
  let was = Telemetry.counting () in
  Telemetry.set_counting true;
  let golden = Telemetry.counter "dca.golden_runs" in
  let before = Telemetry.value golden in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_counting was)
    (fun () ->
      Session.with_session
        ~options:
          Session.Options.(
            default |> with_jobs 1 |> with_config light_config |> with_static static)
        (Session.Benchmark bm)
        (fun s ->
          let rows =
            List.map
              (fun (r : Driver.loop_result) ->
                ( r.Driver.lr_label,
                  Driver.decision_to_string r.Driver.lr_decision,
                  r.Driver.lr_provenance ))
              (Session.dca_results s)
          in
          let plan = Dca_parallel.Codegen.plan_to_string (Session.plan s) in
          { ab_rows = rows; ab_plan = plan; ab_golden = Telemetry.value golden - before }))

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The acceptance sweep: across the whole registry, enabling the prover
   must not flip any verdict (the one legitimate strengthening is
   untestable -> statically proved commutative), must keep every plan
   identical, and must strictly reduce golden-run work on at least one
   benchmark that gained Static loops. *)
let test_registry_static_ab () =
  let gained_static = ref 0 and reduced_golden = ref 0 and clean_gain = ref 0 in
  List.iter
    (fun bm ->
      let name = bm.Benchmark.bm_name in
      let on = analyze_ab bm true and off = analyze_ab bm false in
      Alcotest.(check int) (name ^ ": same loop count") (List.length off.ab_rows)
        (List.length on.ab_rows);
      let verdicts_unchanged = ref true in
      List.iter2
        (fun (l_on, d_on, p_on) (l_off, d_off, p_off) ->
          Alcotest.(check string) (name ^ ": loop order") l_off l_on;
          Alcotest.(check bool) (name ^ ": prover-off rows are Dynamic") true
            (p_off = Driver.Dynamic);
          if d_on <> d_off then begin
            verdicts_unchanged := false;
            (* only legitimate difference: a proof where the dynamic
               stage could not even run the loop *)
            if not (p_on = Driver.Static && d_on = "commutative" && has_prefix "untestable" d_off)
            then
              Alcotest.failf "%s %s: prover flipped %s to %s" name l_on d_off d_on
          end;
          if p_on = Driver.Static then begin
            incr gained_static;
            Alcotest.(check string) (name ^ " " ^ l_on ^ ": static verdicts are commutative")
              "commutative" d_on
          end)
        on.ab_rows off.ab_rows;
      Alcotest.(check string) (name ^ ": plan unchanged") off.ab_plan on.ab_plan;
      Alcotest.(check bool)
        (name ^ ": prover never adds golden runs")
        true (on.ab_golden <= off.ab_golden);
      if on.ab_golden < off.ab_golden then begin
        incr reduced_golden;
        if !verdicts_unchanged then incr clean_gain
      end)
    Registry.all;
  Alcotest.(check bool) "some registry loop proved statically" true (!gained_static > 0);
  Alcotest.(check bool) "golden-run work strictly reduced somewhere" true (!reduced_golden > 0);
  Alcotest.(check bool) "a benchmark gained with verdicts unchanged" true (!clean_gain > 0)

(* ------------------------------------------------------------------ *)
(* static-xcheck fuzz smoke                                            *)
(* ------------------------------------------------------------------ *)

(* The CI job runs 500 programs; here a small deterministic slice keeps
   the differential harness itself under test. *)
let test_static_xcheck_smoke () =
  let cfg =
    {
      Fuzz_driver.default_config with
      Fuzz_driver.fz_seed = 7;
      fz_count = 25;
      fz_max_iters = 3;
      fz_metamorphic = false;
      fz_static_xcheck = true;
    }
  in
  let r = Fuzz_driver.run cfg in
  List.iter
    (fun v ->
      Alcotest.failf "program %d: %s: %s" v.Fuzz_driver.vi_program
        (Fuzz_driver.violation_kind_to_string v.Fuzz_driver.vi_kind)
        v.Fuzz_driver.vi_detail)
    r.Fuzz_driver.r_violations

let suites =
  [
    ( "static.prover",
      [
        Alcotest.test_case "canonical shapes" `Quick test_prover_shapes;
        Alcotest.test_case "config digest versioned" `Quick test_config_digest_static_versioned;
      ] );
    ( "static.corpus",
      [
        Alcotest.test_case "alias same-cell stays dynamic" `Quick test_corpus_alias_samecell;
        Alcotest.test_case "wraparound stays dynamic" `Quick test_corpus_wraparound;
        Alcotest.test_case "cond write proved" `Quick test_corpus_condwrite;
        Alcotest.test_case "half reduction fissions" `Quick test_corpus_halfreduction;
      ] );
    ( "static.report",
      [
        Alcotest.test_case "provenance marker" `Quick test_report_static_marker;
        Alcotest.test_case "dynamic-only bytes stable" `Quick test_report_dynamic_only_stable;
      ] );
    ( "static.counters",
      [ Alcotest.test_case "jobs invariant" `Quick test_counters_jobs_invariant ] );
    ( "static.registry",
      [ Alcotest.test_case "on/off A-B sweep" `Quick test_registry_static_ab ] );
    ( "static.xcheck",
      [ Alcotest.test_case "fuzz smoke" `Quick test_static_xcheck_smoke ] );
  ]

(* Tests for the Session API and the parallel execution engine.

   The contract under test is the deterministic-merge rule: for every
   program and configuration, the parallel engine (jobs > 1) must produce
   loop_result decisions, per-invocation verdict traces and rendered
   reports that are *bit-identical* to the sequential path (jobs = 1).

   On a single-CPU host multi-domain runs pay OCaml 5's stop-the-world
   minor-GC rendezvous on every collection, so the full-registry sweep
   uses a deliberately light configuration (one shuffle, two invocations)
   to keep the suite quick; the default configuration is exercised on a
   subset of fast programs.  Coverage of the default configuration over
   the whole registry lives in the CLI acceptance sweep. *)

module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Commutativity = Dca_core.Commutativity

(* A configuration heavy enough to reach every code path (identity check,
   permuted replays, escalation, worklist promotion) but light enough to
   run the whole registry at several job counts. *)
let light_config =
  {
    Commutativity.default_config with
    Commutativity.cc_schedules = Dca_core.Schedule.presets ~shuffles:1 ();
    cc_max_invocations = 2;
  }

(* Session options at [jobs] with [light_config]. *)
let light_options jobs = Session.Options.(default |> with_jobs jobs |> with_config light_config)

let decision_key (r : Driver.loop_result) =
  (r.Driver.lr_label, Driver.decision_to_string r.Driver.lr_decision)

let outcome_key (r : Driver.loop_result) =
  match r.Driver.lr_outcome with
  | None -> None
  | Some o ->
      Some
        ( Commutativity.verdict_to_string o.Commutativity.oc_verdict,
          o.Commutativity.oc_invocations,
          o.Commutativity.oc_escalated,
          o.Commutativity.oc_promotions,
          List.map Commutativity.verdict_to_string o.Commutativity.oc_per_invocation )

let analyze_at ?config ?hierarchical bm jobs =
  let options =
    let open Session.Options in
    let o = default |> with_jobs jobs in
    let o = match config with Some c -> with_config c o | None -> o in
    match hierarchical with Some h -> with_hierarchical h o | None -> o
  in
  Session.with_session ~options (Session.Benchmark bm) (fun s ->
      (Session.dca_results s, Session.report s))

(* Every registry benchmark: decisions, outcome traces and the rendered
   report agree between jobs=1 and jobs=4. *)
let test_registry_determinism () =
  List.iter
    (fun bm ->
      let seq, seq_report = analyze_at ~config:light_config bm 1 in
      let par, par_report = analyze_at ~config:light_config bm 4 in
      let name = bm.Dca_progs.Benchmark.bm_name in
      Alcotest.(check int)
        (name ^ ": same loop count") (List.length seq) (List.length par);
      List.iter2
        (fun a b ->
          Alcotest.(check (pair string string))
            (name ^ ": decision") (decision_key a) (decision_key b);
          Alcotest.(check bool)
            (name ^ ": outcome trace") true
            (outcome_key a = outcome_key b))
        seq par;
      Alcotest.(check string) (name ^ ": report") seq_report par_report)
    Dca_progs.Registry.all

(* Default (paper) configuration on fast programs, at several widths. *)
let test_default_config_determinism () =
  List.iter
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      let seq, seq_report = analyze_at bm 1 in
      List.iter
        (fun jobs ->
          let par, par_report = analyze_at bm jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s: report jobs=%d" name jobs)
            seq_report par_report;
          List.iter2
            (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: outcome jobs=%d" name jobs)
                true
                (decision_key a = decision_key b && outcome_key a = outcome_key b))
            seq par)
        [ 2; 4 ])
    [ "DC"; "ks"; "treeadd"; "hash" ]

(* Hierarchical mode: subsumption decisions (which require ancestor
   verdicts to be final before descendants are scheduled) must also be
   jobs-invariant. *)
let test_hierarchical_determinism () =
  List.iter
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      let seq, seq_report = analyze_at ~config:light_config ~hierarchical:true bm 1 in
      let par, par_report = analyze_at ~config:light_config ~hierarchical:true bm 4 in
      Alcotest.(check string) (name ^ ": hierarchical report") seq_report par_report;
      let subsumed rs =
        List.filter_map
          (fun r ->
            match r.Driver.lr_decision with
            | Driver.Subsumed anc -> Some (r.Driver.lr_label, anc)
            | _ -> None)
          rs
      in
      Alcotest.(check (list (pair string string)))
        (name ^ ": subsumed set") (subsumed seq) (subsumed par))
    [ "BT"; "LU"; "water-spatial"; "ising" ]

(* In hierarchical mode a subsumed loop is cancelled, not tested: it must
   carry no dynamic outcome, and its subsumer must be a commutative
   ancestor. *)
let test_hierarchical_cancellation () =
  let bm = Dca_progs.Registry.find_exn "LU" in
  let results, _ = analyze_at ~config:light_config ~hierarchical:true bm 4 in
  let commutative_ids = Driver.commutative_ids results in
  let saw_subsumed = ref false in
  List.iter
    (fun r ->
      match r.Driver.lr_decision with
      | Driver.Subsumed anc ->
          saw_subsumed := true;
          Alcotest.(check bool) "subsumed loop was not tested" true (r.Driver.lr_outcome = None);
          Alcotest.(check bool) "subsumer is commutative" true (List.mem anc commutative_ids)
      | _ -> ())
    results;
  Alcotest.(check bool) "LU has subsumed inner loops" true !saw_subsumed

(* Memoization: repeated stage access returns the physically-equal value,
   for any job width and access order. *)
let prop_session_memoizes =
  QCheck.Test.make ~count:30 ~name:"Session stages are memoized (physical equality)"
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 6) (int_range 0 4)))
    (fun (jobs, accesses) ->
      let bm = Dca_progs.Registry.find_exn "DC" in
      Session.with_session ~options:(light_options jobs) (Session.Benchmark bm) (fun s ->
          let stage_eq i =
            match i with
            | 0 -> Session.ir s == Session.ir s
            | 1 -> Session.proginfo s == Session.proginfo s
            | 2 -> Session.profile s == Session.profile s
            | 3 -> Session.dca_results s == Session.dca_results s
            | _ -> Session.plan s == Session.plan s
          in
          List.for_all stage_eq accesses
          && Session.dca_results s == Session.dca_results s))

(* Session.load resolves benchmarks by name and rejects unknown programs. *)
let test_session_load () =
  (match Session.load ~options:Session.Options.(default |> with_jobs 1) "DC" with
  | Ok s ->
      Alcotest.(check string) "benchmark name" "DC" (Session.name s);
      Alcotest.(check int) "jobs" 1 (Session.jobs s);
      Session.close s
  | Error e -> Alcotest.fail e);
  match Session.load "no-such-program-anywhere" with
  | Ok _ -> Alcotest.fail "expected Error for unknown program"
  | Error _ -> ()

(* close is idempotent and leaves memoized stages readable. *)
let test_session_close () =
  let bm = Dca_progs.Registry.find_exn "DC" in
  let s = Session.create ~options:(light_options 4) (Session.Benchmark bm) in
  let results = Session.dca_results s in
  Session.close s;
  Session.close s;
  Alcotest.(check bool) "results readable after close" true (Session.dca_results s == results)

(* Explicit machine/strategy plans are not cached; the default plan is. *)
let test_plan_memoization () =
  let bm = Dca_progs.Registry.find_exn "DC" in
  Session.with_session ~options:(light_options 1) (Session.Benchmark bm) (fun s ->
      let p1 = Session.plan s in
      Alcotest.(check bool) "default plan memoized" true (Session.plan s == p1);
      let m = Dca_parallel.Machine.with_workers Dca_parallel.Machine.default 4 in
      let q1 = Session.plan ~machine:m s in
      Alcotest.(check bool) "explicit plan is fresh" true (Session.plan ~machine:m s != q1);
      Alcotest.(check bool) "default plan still cached" true (Session.plan s == p1))

(* The profiler runs on the fuel of the session's run spec, like the
   dynamic stage. *)
let test_profile_uses_session_fuel () =
  let source =
    "int acc; void main() { int i; for (i = 0; i < 50000; i = i + 1) { acc = acc + i; } printi(acc); }"
  in
  let options =
    Session.Options.(default |> with_jobs 1 |> with_spec (Commutativity.make_run_spec ~fuel:10_000 []))
  in
  Session.with_session ~options (Session.Source { file = "<fuel>"; source; input = [] }) (fun s ->
      match Session.profile s with
      | _ -> Alcotest.fail "the profile outran the session's fuel"
      | exception Dca_interp.Eval.Out_of_fuel -> ())

let suites =
  [
    ( "session",
      [
        Alcotest.test_case "registry determinism jobs=1 vs 4" `Slow test_registry_determinism;
        Alcotest.test_case "default-config determinism" `Slow test_default_config_determinism;
        Alcotest.test_case "hierarchical determinism" `Slow test_hierarchical_determinism;
        Alcotest.test_case "hierarchical cancellation" `Quick test_hierarchical_cancellation;
        QCheck_alcotest.to_alcotest prop_session_memoizes;
        Alcotest.test_case "load resolution" `Quick test_session_load;
        Alcotest.test_case "close idempotent" `Quick test_session_close;
        Alcotest.test_case "plan memoization" `Quick test_plan_memoization;
        Alcotest.test_case "profile uses session fuel" `Quick test_profile_uses_session_fuel;
      ] );
  ]

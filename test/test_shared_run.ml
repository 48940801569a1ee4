(* Differential check of the shared-run engine: [Commutativity.test_loops]
   tests every loop in one program run, and each loop's outcome must equal
   what the reference engine ([Commutativity_ref], one whole-program run
   per loop) reports for it — verdict, tested invocations and their
   verdicts, golden recordings, replays and their steps, skipped
   schedules, promotions and escalation, or the exception that ended the
   loop's run. *)

open Dca_analysis
module Commutativity = Dca_core.Commutativity
module Candidate = Dca_core.Candidate
module Ref = Commutativity_ref

let ref_config (c : Commutativity.config) =
  {
    Ref.cc_schedules = c.Commutativity.cc_schedules;
    cc_eps = c.Commutativity.cc_eps;
    cc_escalate = c.Commutativity.cc_escalate;
    cc_max_invocations = c.Commutativity.cc_max_invocations;
    cc_promote_rounds = c.Commutativity.cc_promote_rounds;
  }

let raised e = "raised " ^ Printexc.to_string e

(* Every field both engines report, as one line. *)
let key verdict invocations per_invocation goldens replays steps skipped promotions escalated =
  Printf.sprintf
    "%s | invocations=%d [%s] goldens=%d replays=%d steps=%d skipped=%d promotions=%d escalated=%b"
    verdict invocations (String.concat "; " per_invocation) goldens replays steps skipped promotions
    escalated

let shared_key = function
  | Error (e, _) -> raised e
  | Ok (oc : Commutativity.outcome) ->
      key
        (Commutativity.verdict_to_string oc.oc_verdict)
        oc.oc_invocations
        (List.map Commutativity.verdict_to_string oc.oc_per_invocation)
        oc.oc_golden_runs oc.oc_replays oc.oc_replay_steps oc.oc_skipped_schedules oc.oc_promotions
        oc.oc_escalated

let ref_key run =
  match run () with
  | exception e -> raised e
  | (oc : Ref.outcome) ->
      key (Ref.verdict_to_string oc.oc_verdict) oc.oc_invocations
        (List.map Ref.verdict_to_string oc.oc_per_invocation)
        oc.oc_golden_runs oc.oc_replays oc.oc_replay_steps oc.oc_skipped_schedules oc.oc_promotions
        oc.oc_escalated

(* Every loop the static candidate stage accepts, in program order: the
   prover is left out, so statically provable loops are tested too. *)
let candidates info =
  List.filter_map
    (fun (fi, loop) ->
      match Candidate.examine info fi loop with
      | Candidate.Accepted sep -> Some (fi, sep)
      | Candidate.Rejected _ -> None)
    (Proginfo.all_loops info)

(* The two engines' keys per candidate loop, labelled; [?pool] is the
   shared-run engine's pool (default: width 1). *)
let compare_engines ?(config = Commutativity.default_config) ?fuel ?pool info input =
  let loops = candidates info in
  let shared =
    Commutativity.test_loops ?pool config info (Commutativity.make_run_spec ?fuel input) loops
  in
  let spec = Ref.make_run_spec ?fuel input in
  List.map2
    (fun (fi, sep) r ->
      ( Proginfo.loop_label info sep.Dca_core.Iterator_rec.sep_loop,
        shared_key r,
        ref_key (fun () -> Ref.test_loop (ref_config config) info spec fi sep) ))
    loops shared

let check_program ?config ?fuel name info input =
  List.iter
    (fun (label, shared, own) ->
      Alcotest.(check string) (Printf.sprintf "%s %s" name label) own shared)
    (compare_engines ?config ?fuel info input)

let info_of_source name src = Proginfo.analyze (Dca_ir.Lower.compile ~file:name src)

let test_registry () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) ->
      check_program bm.bm_name
        (info_of_source bm.bm_name bm.bm_source)
        bm.bm_input)
    Dca_progs.Registry.all

let test_corpus () =
  let dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus found" true (files <> []);
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      check_program f (info_of_source f src) [])
    files

(* The fuzzer's programs: seed 42, as [dca fuzz --seed 42] draws them. *)
let test_generated () =
  let root = Dca_support.Prng.create 42 in
  for k = 1 to 200 do
    let g = Dca_gen.Gen_program.generate ~max_iters:4 (Dca_support.Prng.split root) in
    check_program (Printf.sprintf "generated #%d" k)
      (info_of_source "<gen>" g.Dca_gen.Gen_program.g_source)
      []
  done

(* ------------------------------------------------------------------ *)
(* Edge programs                                                       *)
(* ------------------------------------------------------------------ *)

(* The program traps after the inner loop's last tested invocation (it
   has six, four are tested): every loop still reports the trap. *)
let trap_after_src =
  {|
  int a[8];
  int z;
  void main() {
    int i;
    int k;
    for (k = 0; k < 6; k = k + 1) {
      for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + k; }
    }
    printi(a[3]);
    printi(10 / z);
  }
  |}

(* One loop sits in a function nobody calls, one behind a false guard. *)
let never_run_src =
  {|
  int a[8];
  int n;
  void unused() {
    int j;
    for (j = 0; j < 8; j = j + 1) { a[j] = a[j] * 2; }
  }
  void main() {
    int i;
    for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + i; }
    if (n > 0) {
      for (i = 0; i < 8; i = i + 1) { a[i] = a[i] - 1; }
    }
    printi(a[5]);
  }
  |}

(* Tested loops nested in a tested loop and in callees of it: a
   commutative and an order-dependent inner loop, a loop whose live-out
   digest differs but whose output does not (it escalates and passes),
   and a worklist that needs promotion. *)
let nested_src =
  {|
  float a[16];
  float b[16];
  int c[16];
  int work[64];
  int scratch[2];
  void scale(int k) {
    int j;
    for (j = 0; j < 16; j = j + 1) { b[j] = b[j] * 0.5 + a[j]; }
  }
  int drain(int seed) {
    int head;
    int tail;
    int sum;
    head = 0;
    tail = 1;
    work[0] = seed;
    sum = 0;
    while (head < tail) {
      int v;
      v = work[head];
      head = head + 1;
      sum = sum + v;
      if (v > 1 && tail < 60) {
        work[tail] = v / 2;
        tail = tail + 1;
      }
    }
    return sum;
  }
  void main() {
    int i;
    int k;
    int total;
    total = 0;
    for (k = 0; k < 5; k = k + 1) {
      for (i = 0; i < 16; i = i + 1) { a[i] = a[i] + itof(k); }
      for (i = 1; i < 16; i = i + 1) { c[i] = c[i] + c[i - 1] + k; }
      scale(k);
      for (i = 0; i < 16; i = i + 1) { scratch[0] = i; }
      total = total + drain(k + 7);
    }
    print(a[3] + b[7]);
    printi(c[15]);
    printi(total);
  }
  |}

let test_edges () =
  List.iter
    (fun (name, src) -> check_program name (info_of_source name src) [])
    [ ("trap after the last tested invocation", trap_after_src);
      ("loops that never run", never_run_src);
      ("nested and callee loops", nested_src) ];
  (* the trap reaches every loop, the unexecuted loops say so *)
  let verdicts src =
    let info = info_of_source "<edge>" src in
    Commutativity.test_loops Commutativity.default_config info Commutativity.default_run_spec
      (candidates info)
    |> List.map (function
         | Ok oc -> Commutativity.verdict_to_string oc.Commutativity.oc_verdict
         | Error (e, _) -> raised e)
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) ("trap reported: " ^ v) true
        (String.starts_with ~prefix:"untestable (program trapped" v))
    (verdicts trap_after_src);
  Alcotest.(check int) "unexecuted loops" 2
    (List.length
       (List.filter (( = ) "untestable (loop not executed by the workload)") (verdicts never_run_src)))

(* A test that raises ends only its own loop's run: the loop is restored
   and aborted, and every other loop of the shared run keeps its verdict.
   The n-th hit of a fault site raises, for every n: [commutativity.golden]
   fires as a golden recording starts, [eval.step] anywhere — mid-test,
   where only the restore keeps the siblings' state intact, or in the
   plain execution, which ends the run of every loop. *)
let test_raising_test_contained () =
  let module FP = Dca_support.Faultpoint in
  let module Driver = Dca_core.Driver in
  let info = info_of_source "<nested>" nested_src in
  let decisions () =
    List.map
      (fun (r : Driver.loop_result) -> (r.lr_label, Driver.decision_to_string r.lr_decision))
      (Driver.analyze_program ~static:false info)
  in
  let base = decisions () in
  let sweep site =
    let contained = ref 0 and n = ref 1 and fired = ref true in
    while !fired do
      let plan =
        FP.make
          [ { FP.sp_site = site; sp_ctx = None; sp_nth = !n; sp_repeat = false; sp_action = FP.Raise } ]
      in
      let faulted = FP.with_plan plan decisions in
      let aborted =
        List.filter (fun (_, d) -> String.starts_with ~prefix:"aborted: crash: injected" d) faulted
      in
      fired := aborted <> [];
      if List.length aborted = 1 then begin
        incr contained;
        List.iter2
          (fun (l, b) (l', f) ->
            Alcotest.(check string) "same loop order" l l';
            if not (List.mem (l', f) aborted) then
              Alcotest.(check string) (Printf.sprintf "%s #%d: %s unchanged" site !n l) b f)
          base faulted
      end
      else if !fired then
        Alcotest.(check int) (Printf.sprintf "%s #%d: the plain run ends every loop" site !n)
          (List.length base) (List.length aborted);
      incr n
    done;
    !contained
  in
  Alcotest.(check bool) "every golden recording raised once" true (sweep "commutativity.golden" > 20);
  Alcotest.(check bool) "some guard check raised inside a test" true (sweep "eval.step" > 0)

(* Two sibling loops inside an outer loop, with very different test work:
   their own runs run out of fuel at different budgets, inside a test or
   in the plain part, and neither may be charged the other's work.  The
   sweep runs at pool widths 1 and 2: replays run on replicas at both,
   and each replica's instructions must be charged to its loop in
   schedule order, so a budget runs out at the same replay either way. *)
let fuel_sweep_src =
  {|
  int a[40];
  int b[4];
  void main() {
    int i;
    int k;
    for (k = 0; k < 3; k = k + 1) {
      for (i = 0; i < 40; i = i + 1) { a[i] = a[i] + i + k; }
      for (i = 0; i < 4; i = i + 1) { b[i] = b[i] + k; }
    }
    printi(a[5] + b[3]);
  }
  |}

let starts_out_of_fuel v = String.starts_with ~prefix:"untestable (program ran out of fuel" v

let test_fuel_sweep () =
  let info = info_of_source "<fuel>" fuel_sweep_src in
  let plain =
    let ctx = Dca_interp.Eval.create (Proginfo.program info) in
    Dca_interp.Eval.run_main ctx;
    Dca_interp.Eval.steps ctx
  in
  let starved = Hashtbl.create 4 and split = ref false in
  Dca_support.Pool.with_pool ~jobs:2 (fun pool2 ->
      let fuel = ref (plain - 20) in
      while !fuel < plain + 15_000 do
        List.iter
          (fun (width, pool) ->
            let keys = compare_engines ~fuel:!fuel ?pool info [] in
            List.iter
              (fun (label, shared, own) ->
                Alcotest.(check string)
                  (Printf.sprintf "fuel %d, width %d: %s" !fuel width label)
                  own shared;
                if starts_out_of_fuel own then Hashtbl.replace starved label ())
              keys;
            let n = List.length (List.filter (fun (_, _, own) -> starts_out_of_fuel own) keys) in
            if n > 0 && n < List.length keys then split := true)
          [ (1, None); (2, Some pool2) ];
        fuel := !fuel + 5
      done);
  (* the sweep crossed every loop's own threshold, not all at one budget *)
  Alcotest.(check int) "every loop ran out of fuel at some budget" 3 (Hashtbl.length starved);
  Alcotest.(check bool) "some budget starves a loop but not its siblings" true !split

let suites =
  [
    ( "shared-run",
      [
        Alcotest.test_case "registry programs match the reference" `Quick test_registry;
        Alcotest.test_case "corpus programs match the reference" `Quick test_corpus;
        Alcotest.test_case "generated programs match the reference" `Quick test_generated;
        Alcotest.test_case "edge programs match the reference" `Quick test_edges;
        Alcotest.test_case "fuel sweep matches the reference" `Quick test_fuel_sweep;
        Alcotest.test_case "a raising test is contained" `Quick test_raising_test_contained;
      ] );
  ]

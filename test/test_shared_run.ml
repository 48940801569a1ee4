(* Differential check of the shared-run engine: [Commutativity.test_loops]
   tests every loop in one program run, and each loop's outcome must equal
   what the reference engine ([Commutativity_ref], one whole-program run
   per loop) reports for it — verdict, tested invocations and their
   verdicts, golden recordings, replays and their steps, skipped
   schedules, promotions and escalation, or the exception that ended the
   loop's run. *)

open Dca_analysis
module Intset = Dca_support.Intset
module Commutativity = Dca_core.Commutativity
module Candidate = Dca_core.Candidate
module Ref = Commutativity_ref

let ref_config (c : Commutativity.config) =
  {
    Ref.cc_schedules = c.Commutativity.cc_schedules;
    cc_eps = c.Commutativity.cc_eps;
    cc_escalate = c.Commutativity.cc_escalate;
    cc_max_invocations = c.Commutativity.cc_max_invocations;
    cc_promote_rounds = Commutativity.promote_rounds;
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

(* ------------------------------------------------------------------ *)
(* Footprints and the attribution pass                                 *)
(* ------------------------------------------------------------------ *)

(* Golden recording keeps role bits per location and flags a run when a
   mark makes a cell conflict; the instructions to promote come from a
   second recording that reads the flagged run's cells.  Each program
   below must match the reference, which keeps the old per-location
   instruction sets, and each is checked for the path it is named for. *)

(* The payload writes nxt[i + 2], which the slice reads two iterations
   later: the cell conflicts only at its second access. *)
let later_read_src =
  {|
  int nxt[10];
  int val[10];
  void main() {
    int i;
    int k;
    for (k = 0; k < 10; k = k + 1) { nxt[k] = k + 1; }
    i = 0;
    while (i < 10) {
      val[i] = val[i] + i * 3;
      if (i + 2 < 10) { nxt[i + 2] = i + 3; }
      i = nxt[i];
    }
    printi(val[4]);
  }
  |}

(* The first promotion moves the store of g into the slice; then the
   payload reads a global the slice writes. *)
let global_read_src =
  {|
  int g;
  int out[16];
  void main() {
    while (g < 12) {
      out[g] = g * 2;
      g = g + 1;
    }
    printi(out[5]);
  }
  |}

(* The generator is read and written by the slice and by the payload. *)
let drand_src =
  {|
  float acc[8];
  void main() {
    int i;
    dseed(5);
    i = 0;
    while (i < 24) {
      acc[i % 8] = acc[i % 8] + drand();
      i = i + 1 + ftoi(drand() * 2.0);
    }
    print(acc[3]);
  }
  |}

(* The conflicting write is inside a callee: the call is promoted. *)
let callee_src =
  {|
  int nxt[10];
  int val[10];
  void bump(int j) {
    if (j < 10) { nxt[j] = j + 1; }
  }
  void main() {
    int i;
    int k;
    for (k = 0; k < 10; k = k + 1) { nxt[k] = k + 1; }
    i = 0;
    while (i < 10) {
      val[i] = val[i] + i;
      bump(i + 1);
      i = nxt[i];
    }
    printi(val[7]);
  }
  |}

(* Every invocation of the inner while loop allocates a block per
   iteration, and the next invocation reads it.  The loop's live-out
   digest differs under permutation (last), so it escalates.  In a
   whole-program run the permuted replay allocates in schedule order:
   under a schedule that runs iteration 5 first, its block takes the
   id that iteration 0's smaller block had in that run's previous golden
   recording.  The next recording then reads the block past the old
   size, which grows its cells, and only then the payload writes the
   cell the slice read before the growth — a conflict that exists only
   if the growth kept the mark. *)
let reused_block_src =
  {|
  int *cur[6];
  int *nxt[6];
  int first;
  int last;
  int total;
  void main() {
    int k;
    int i;
    int j;
    int flag;
    for (j = 0; j < 6; j = j + 1) { cur[j] = new int[j + 1]; }
    flag = 9;
    for (k = 0; k < 3; k = k + 1) {
      first = 0 - 1;
      i = 0;
      while (i < 6) {
        int *old;
        int z;
        int *p;
        old = cur[i];
        z = old[0] * 0;
        total = total + old[i];
        if (flag * 10 + i == 55) { old[0] = 1; }
        p = new int[i + 2 + k];
        p[0] = 0;
        nxt[i] = p;
        if (first < 0) { first = i; }
        last = i;
        i = i + 1 + z;
      }
      flag = first;
      for (j = 0; j < 6; j = j + 1) { cur[j] = nxt[j]; }
    }
    printi(total);
  }
  |}

(* Each promotion pulls in the store of the next global in the chain,
   whose writer the next round finds: three promotions, and the fourth
   recording is still violated. *)
let three_rounds_src =
  {|
  int g1;
  int g2;
  int g3;
  int g4;
  int out[32];
  void main() {
    int i;
    i = 0;
    while (g1 < 20) {
      out[i] = i;
      i = i + 1;
      g4 = g4 + 1;
      g3 = g4 + 1;
      g2 = g3 + 1;
      g1 = g2 + 1;
    }
    printi(out[3]);
  }
  |}

(* The shared engine's outcome of the loop whose header is on [line]. *)
let outcome_at info line =
  let loops = candidates info in
  let results =
    Commutativity.test_loops Commutativity.default_config info Commutativity.default_run_spec loops
  in
  match
    List.find_opt
      (fun ((_, sep), _) -> sep.Dca_core.Iterator_rec.sep_loop.Loops.l_loc.Dca_frontend.Loc.line = line)
      (List.combine loops results)
  with
  | Some (_, Ok oc) -> oc
  | Some (_, Error (e, _)) -> Alcotest.fail (raised e)
  | None -> Alcotest.failf "no tested loop on line %d" line

(* The ids of the loop's instructions on source line [line] that [pick]
   accepts. *)
let loop_instrs info (oc : Commutativity.outcome) (line, pick) =
  let loop = oc.oc_separation.Dca_core.Iterator_rec.sep_loop in
  let fi = Proginfo.func_info info loop.Loops.l_func in
  List.filter_map
    (fun (i : Dca_ir.Ir.instr) ->
      if i.Dca_ir.Ir.iloc.Dca_frontend.Loc.line = line && pick i.Dca_ir.Ir.idesc then Some i.Dca_ir.Ir.iid
      else None)
    (Loops.instrs_of fi.Proginfo.fi_cfg loop)

let test_footprints () =
  let programs =
    [
      ("payload write read later by the slice", later_read_src);
      ("payload read of a global the slice writes", global_read_src);
      ("drand in slice and payload", drand_src);
      ("conflict inside a callee", callee_src);
      ("block id reused by a larger block", reused_block_src);
      ("three promotion rounds", three_rounds_src);
    ]
  in
  List.iter (fun (name, src) -> check_program name (info_of_source name src) []) programs;
  let check name src line ~verdict ~promotions ~promoted =
    let info = info_of_source name src in
    let oc = outcome_at info line in
    Alcotest.(check string) (name ^ ": verdict") verdict (Commutativity.verdict_to_string oc.oc_verdict);
    Alcotest.(check int) (name ^ ": promotions") promotions oc.oc_promotions;
    let slice = oc.oc_separation.Dca_core.Iterator_rec.sep_slice in
    List.iter
      (fun what ->
        let iids = loop_instrs info oc what in
        Alcotest.(check bool) (Printf.sprintf "%s: line %d has the instruction" name (fst what)) true (iids <> []);
        List.iter
          (fun iid -> Alcotest.(check bool) (Printf.sprintf "%s: i%d promoted" name iid) true (Intset.mem iid slice))
          iids)
      promoted
  in
  let store = function Dca_ir.Ir.Store _ -> true | _ -> false in
  let gload = function Dca_ir.Ir.Gload _ -> true | _ -> false in
  let gstore = function Dca_ir.Ir.Gstore _ -> true | _ -> false in
  let call name = function Dca_ir.Ir.Call (_, f, _) -> f = name | _ -> false in
  check "later read" later_read_src 9 ~verdict:"commutative" ~promotions:1 ~promoted:[ (11, store) ];
  check "global read" global_read_src 5 ~verdict:"commutative" ~promotions:2
    ~promoted:[ (7, gstore); (6, gload) ];
  check "drand" drand_src 7 ~verdict:"commutative" ~promotions:1 ~promoted:[ (8, call "drand") ];
  check "callee" callee_src 12 ~verdict:"commutative" ~promotions:1 ~promoted:[ (14, call "bump") ];
  check "reused block" reused_block_src 17
    ~verdict:"untestable (whole-program replay: separability violated in whole-program run)" ~promotions:0
    ~promoted:[];
  check "three rounds" three_rounds_src 10 ~verdict:"untestable (memory separability violated)" ~promotions:3
    ~promoted:[ (14, gstore); (15, gstore); (16, gstore) ]

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

(* One loop whose iterator pass the identity self-check and every
   schedule share: the identity runs it on the main context, and each
   replica starts after it and is first charged its instructions.  Every
   budget from 0 to past the end of the run, at pool widths 1 and 2, so
   the budget runs out at every instruction of the shared pass and
   inside every replica's charge, as well as in the payload passes. *)
let shared_pass_src =
  {|
  int a[24];
  int b[24];
  void main() {
    int i;
    int j;
    j = 5;
    for (i = 0; i < 24 && j > 0; i = i + 1) {
      j = (j * 7 + i) % 11 + 1;
      a[i] = a[i] + b[i] * 2 + i;
    }
    printi(a[5]);
  }
  |}

let test_shared_pass_budgets () =
  let info = info_of_source "<shared pass>" shared_pass_src in
  let replay_steps =
    match
      Commutativity.test_loops Commutativity.default_config info (Commutativity.make_run_spec [])
        (candidates info)
    with
    | [ Ok oc ] -> oc.oc_replay_steps
    | results -> Alcotest.failf "expected one tested loop, got %d results" (List.length results)
  in
  (* the plain run's instructions, and those before the loop's header *)
  let plain, before_loop =
    let loop = (snd (List.hd (candidates info))).Dca_core.Iterator_rec.sep_loop in
    let ctx = Dca_interp.Eval.create (Proginfo.program info) in
    let at = ref (-1) in
    Dca_interp.Eval.add_interceptor ctx ~fname:loop.Loops.l_func ~header:loop.Loops.l_header (fun ctx frame ->
        if !at < 0 then at := Dca_interp.Eval.steps ctx;
        match
          Dca_interp.Eval.exec_upto ctx frame ~start:loop.Loops.l_header
            ~stop:(fun b -> not (Loops.contains_block loop b))
            ~control:None
        with
        | Dca_interp.Eval.Stopped_at e -> e
        | Dca_interp.Eval.Returned _ -> Alcotest.fail "the loop returned");
    Dca_interp.Eval.run_main ctx;
    (Dca_interp.Eval.steps ctx, !at)
  in
  (* the shared run's [interp.instructions] *)
  let instructions fuel pool =
    let tele = Dca_support.Telemetry.Ctx.create ~counting:true () in
    Dca_support.Telemetry.with_ctx tele (fun () ->
        ignore
          (Commutativity.test_loops ?pool Commutativity.default_config info
             (Commutativity.make_run_spec ~fuel [])
             (candidates info)));
    List.assoc "interp.instructions" (Dca_support.Telemetry.Ctx.counters tele)
  in
  (* the instructions of the loop's tests when nothing runs out *)
  let tests = instructions Dca_interp.Eval.default_fuel None - plain in
  let starved = ref 0 in
  Dca_support.Pool.with_pool ~jobs:2 (fun pool2 ->
      (* past the plain run, its golden recording (about one plain run)
         and its replays *)
      for fuel = 0 to (3 * plain) + replay_steps do
        List.iter
          (fun (width, pool) ->
            List.iter
              (fun (label, shared, own) ->
                Alcotest.(check string) (Printf.sprintf "fuel %d, width %d: %s" fuel width label) own shared;
                if width = 1 && starts_out_of_fuel own then incr starved;
                if fuel >= before_loop && fuel < before_loop + tests then begin
                  (* the tests stopped one past the budget, wherever the
                     fuel ran out — in the shared pass, a replica's
                     charge or a payload pass — and the plain program
                     then went on with its own budget *)
                  Alcotest.(check int)
                    (Printf.sprintf "fuel %d, width %d: instructions" fuel width)
                    (fuel + 1 - before_loop + min plain (fuel + 1))
                    (instructions fuel pool)
                end)
              (compare_engines ~fuel ?pool info []))
          [ (1, None); (2, Some pool2) ]
      done);
  (* every budget below the end of the replays starves the loop *)
  Alcotest.(check bool) "the budget ran out inside the replays" true (!starved > replay_steps)

let suites =
  [
    ( "shared-run",
      [
        Alcotest.test_case "registry programs match the reference" `Quick test_registry;
        Alcotest.test_case "corpus programs match the reference" `Quick test_corpus;
        Alcotest.test_case "generated programs match the reference" `Quick test_generated;
        Alcotest.test_case "edge programs match the reference" `Quick test_edges;
        Alcotest.test_case "fuel sweep matches the reference" `Quick test_fuel_sweep;
        Alcotest.test_case "every budget of a shared iterator pass" `Quick test_shared_pass_budgets;
        Alcotest.test_case "a raising test is contained" `Quick test_raising_test_contained;
        Alcotest.test_case "footprints and the attribution pass" `Quick test_footprints;
      ] );
  ]

open Dca_support
open Dca_analysis
module Eval = Dca_interp.Eval

type abort_cause =
  | Trap of string
  | Fuel
  | Deadline
  | Heap
  | Crash of { exn : string; backtrace : string }

type decision =
  | Commutative
  | Non_commutative of string
  | Untestable of string
  | Rejected of Candidate.rejection
  | Subsumed of string
  | Aborted of { ab_cause : abort_cause; ab_retries : int }

(* How a verdict was reached: [Static] marks a loop discharged by the
   affine prover without any golden run or replay; everything else —
   including rejections, subsumptions and aborts — is [Dynamic]. *)
type provenance = Dynamic | Static

type loop_result = {
  lr_loop : Loops.loop;
  lr_label : string;
  lr_decision : decision;
  lr_outcome : Commutativity.outcome option;
  lr_provenance : provenance;
}

(* Work counters: one tick per loop outcome, always at the point where
   the result record is built — reached exactly once per loop at any
   worker count, so totals are jobs-invariant. *)
let c_examined = Telemetry.counter "dca.loops_examined"
let c_rejected = Telemetry.counter "dca.loops_rejected"
let c_subsumed = Telemetry.counter "dca.loops_subsumed"
let c_aborted = Telemetry.counter "dca.aborted"
let c_retries = Telemetry.counter "dca.retries"
let c_deadline_hits = Telemetry.counter "dca.deadline-hits"
let c_faults_injected = Telemetry.counter "dca.faults-injected"
let c_static_proved = Telemetry.counter "dca.static-proved"
let c_static_fission = Telemetry.counter "dca.static-fission"
let c_static_bailouts = Telemetry.counter "dca.static-bailouts"

let fp_loop = Faultpoint.site "driver.loop"

let abort_cause_to_string = function
  | Trap m -> "trap escaped the loop harness: " ^ m
  | Fuel -> "instruction fuel exhausted"
  | Deadline -> "wall-clock deadline exceeded"
  | Heap -> "heap budget exhausted"
  | Crash { exn; _ } -> "crash: " ^ exn

let decision_to_string = function
  | Commutative -> "commutative"
  | Non_commutative why -> Printf.sprintf "non-commutative: %s" why
  | Untestable why -> Printf.sprintf "untestable: %s" why
  | Rejected r -> Printf.sprintf "rejected: %s" (Candidate.rejection_to_string r)
  | Subsumed parent -> Printf.sprintf "subsumed by commutative ancestor %s" parent
  | Aborted { ab_cause; ab_retries } ->
      (* the backtrace is deliberately excluded: report lines must be
         deterministic (and byte-identical across job counts) *)
      Printf.sprintf "aborted: %s%s"
        (abort_cause_to_string ab_cause)
        (if ab_retries > 0 then Printf.sprintf " (%d escalated retry exhausted)" ab_retries else "")

(* Classification of an exception that escaped one loop's test.  The
   whole taxonomy is caught at the loop boundary: nothing a loop's test
   raises may poison the verdicts of its siblings. *)
let classify_abort e bt =
  match e with
  | Eval.Trap m -> Trap m
  | Eval.Out_of_fuel -> Fuel
  | Eval.Deadline_exceeded -> Deadline
  | Eval.Heap_exhausted -> Heap
  | Faultpoint.Injected m -> Crash { exn = m; backtrace = bt }
  | e -> Crash { exn = Printexc.to_string e; backtrace = bt }

let retry_limit = 1
let escalation_factor = 4

let escalate_spec (spec : Commutativity.run_spec) =
  {
    spec with
    Commutativity.rs_fuel = spec.Commutativity.rs_fuel * escalation_factor;
    rs_deadline_ns = Option.map (fun d -> d * escalation_factor) spec.Commutativity.rs_deadline_ns;
  }

let analyze_program ?(config = Commutativity.default_config)
    ?(spec = Commutativity.default_run_spec) ?(hierarchical = false) ?(static = true) ?pool
    ?lookup info =
  let commutative_ancestors : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let subsuming_ancestor (fi : Proginfo.func_info) (loop : Loops.loop) =
    if not hierarchical then None
    else
      Loops.nesting_path fi.Proginfo.fi_forest loop
      |> List.find_opt (fun anc ->
             anc.Loops.l_id <> loop.Loops.l_id && Hashtbl.mem commutative_ancestors anc.Loops.l_id)
  in
  (* A result this call computed (not a cached one): the containment
     counters tick here, once per loop. *)
  let computed loop label decision outcome provenance =
    (match decision with
    | Aborted { ab_cause; _ } ->
        Telemetry.incr c_aborted;
        (match ab_cause with
        | Crash { exn; _ } when Faultpoint.is_injected_message exn -> Telemetry.incr c_faults_injected
        | Trap m when Faultpoint.is_injected_message m -> Telemetry.incr c_faults_injected
        | _ -> ())
    | Non_commutative why | Untestable why ->
        if Faultpoint.is_injected_message why then Telemetry.incr c_faults_injected
    | _ -> ());
    {
      lr_loop = loop;
      lr_label = label;
      lr_decision = decision;
      lr_outcome = outcome;
      lr_provenance = provenance;
    }
  in
  (* The static stage of one loop: the [driver.loop] fault point,
     [Candidate.examine] and the prover.  It returns the loop's result,
     or the separation the dynamic stage must test.  Any exception is
     contained here and classified like a test-stage escape, but never
     retried (the static stage has no resource budget to escalate). *)
  let static_stage (fi, loop) =
    let label = Proginfo.loop_label info loop in
    Telemetry.incr c_examined;
    match
      Eval.hit_fault ~ctx:label fp_loop;
      Telemetry.span ~cat:"static" "examine" (fun () -> Candidate.examine info fi loop)
    with
    | Candidate.Rejected r ->
        Telemetry.incr c_rejected;
        `Done (computed loop label (Rejected r) None Dynamic)
    | Candidate.Accepted sep -> (
        (* The static fast-path runs only on loops the dynamic stage
           would otherwise test, so a statically-provable but
           dynamically-rejected loop keeps its rejection, and the
           examined/rejected counters are invariant under [--no-static].
           A prover crash degrades to a bailout: the dynamic stage still
           produces the verdict. *)
        let static_proof =
          if not static then None
          else
            Some
              (Telemetry.span ~cat:"static" "staticproof" (fun () ->
                   try Staticproof.prove info fi loop
                   with e -> Staticproof.Bail ("prover crash: " ^ Printexc.to_string e)))
        in
        match static_proof with
        | Some (Staticproof.Proved _) ->
            Telemetry.incr c_static_proved;
            `Done (computed loop label Commutative None Static)
        | _ ->
            (match static_proof with
            | Some (Staticproof.Fission _) -> Telemetry.incr c_static_fission
            | Some (Staticproof.Bail _) -> Telemetry.incr c_static_bailouts
            | _ -> ());
            `Test (label, sep))
    | exception e ->
        let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
        let decision = Aborted { ab_cause = classify_abort e bt; ab_retries = 0 } in
        `Done (computed loop label decision None Dynamic)
  in
  (* A cache front end resolves a loop before any work is done for it.  A
     resolved result short-circuits the static stage and the test
     entirely, so none of the per-loop work counters tick for it — cache
     hits are visible as missing [dca.*] work, which the invalidation
     tests rely on. *)
  let resolve ((fi, loop) as fl) =
    match subsuming_ancestor fi loop with
    | Some anc ->
        Telemetry.incr c_subsumed;
        `Done
          {
            lr_loop = loop;
            lr_label = Proginfo.loop_label info loop;
            lr_decision = Subsumed anc.Loops.l_id;
            lr_outcome = None;
            lr_provenance = Dynamic;
          }
    | None -> (
        match Option.bind lookup (fun find -> find fi loop) with
        | Some r -> `Done r
        | None -> static_stage fl)
  in
  (* The dynamic stage of a wave: one shared program run tests all its
     loops.  A loop whose run ended on the fuel or deadline guard is
     retried, together with the others that did, in one more shared run
     with escalated budgets. *)
  let rec test spec retries tests =
    let results =
      Commutativity.test_loops ?pool config info spec tests
      |> List.map (function
           | Ok outcome -> Ok outcome
           | Error (e, bt) ->
               let cause = classify_abort e (Printexc.raw_backtrace_to_string bt) in
               (match cause with Deadline -> Telemetry.incr c_deadline_hits | _ -> ());
               Error (cause, retries))
    in
    let retryable = function Error ((Fuel | Deadline), _) -> retries < retry_limit | _ -> false in
    let paired = List.combine tests results in
    match List.filter (fun (_, r) -> retryable r) paired with
    | [] -> results
    | again ->
        Telemetry.add c_retries (List.length again);
        let retried = ref (test (escalate_spec spec) (retries + 1) (List.map fst again)) in
        List.map
          (fun (_, r) ->
            if not (retryable r) then r
            else
              match !retried with
              | r' :: rest ->
                  retried := rest;
                  r'
              | [] -> assert false)
          paired
  in
  (* Loops arrive outermost-first within each function.  Hierarchical
     mode tests them in waves of equal nesting depth: a loop's only
     inter-loop dependence is on its ancestors, all of strictly smaller
     depth, so when a wave starts every ancestor verdict is final and a
     subsumed loop is skipped before any work is done for it.  Without
     subsumption all loops form one wave. *)
  let loops = List.mapi (fun i fl -> (i, fl)) (Proginfo.all_loops info) in
  let waves =
    if not hierarchical then [ loops ]
    else
      Listx.group_by (fun (_, (_, loop)) -> loop.Loops.l_depth) loops
      |> List.sort (fun (d1, _) (d2, _) -> compare d1 d2)
      |> List.map snd
  in
  let results = Array.make (List.length loops) None in
  List.iter
    (fun wave ->
      let pending =
        List.filter_map
          (fun (i, ((fi, loop) as fl)) ->
            match resolve fl with
            | `Done r ->
                results.(i) <- Some r;
                None
            | `Test (label, sep) -> Some (i, loop, label, (fi, sep)))
          wave
      in
      List.iter2
        (fun (i, loop, label, _) r ->
          let decision, outcome =
            match r with
            | Ok outcome ->
                ( (match outcome.Commutativity.oc_verdict with
                  | Commutativity.Commutative -> Commutative
                  | Commutativity.Non_commutative why -> Non_commutative why
                  | Commutativity.Untestable why -> Untestable why),
                  Some outcome )
            | Error (cause, retries) -> (Aborted { ab_cause = cause; ab_retries = retries }, None)
          in
          results.(i) <- Some (computed loop label decision outcome Dynamic))
        pending
        (test spec 0 (List.map (fun (_, _, _, t) -> t) pending));
      List.iter
        (fun (i, _) ->
          match results.(i) with
          | Some { lr_decision = Commutative; lr_loop; _ } ->
              Hashtbl.replace commutative_ancestors lr_loop.Loops.l_id ()
          | _ -> ())
        wave)
    waves;
  Array.to_list results |> List.map Option.get

let analyze_source ?config ?spec ?hierarchical ?static ?pool ~file src =
  let prog = Dca_ir.Lower.compile ~file src in
  let info = Proginfo.analyze prog in
  (info, analyze_program ?config ?spec ?hierarchical ?static ?pool info)

let is_commutative r = match r.lr_decision with Commutative -> true | _ -> false

let commutative_ids results =
  List.filter_map (fun r -> if is_commutative r then Some r.lr_loop.Loops.l_id else None) results

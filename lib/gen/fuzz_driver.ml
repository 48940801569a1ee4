open Dca_support
open Dca_frontend
module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Schedule = Dca_core.Schedule
module Loops = Dca_analysis.Loops

type violation_kind =
  | Roundtrip_drift
  | Generator_invalid
  | False_non_commutative
  | Bogus_witness of string
  | Dca_crash
  | Jobs_report_divergence
  | Checkpoint_report_divergence
  | Containment_breach
  | Static_divergence

let violation_kind_to_string = function
  | Roundtrip_drift -> "printer/parser round-trip drift"
  | Generator_invalid -> "generator produced an unusable program"
  | False_non_commutative -> "DCA reports non-commutative but every permutation agrees"
  | Bogus_witness s -> Printf.sprintf "DCA witness schedule %s does not reproduce a mismatch" s
  | Dca_crash -> "DCA pipeline raised an internal exception"
  | Jobs_report_divergence -> "report differs between jobs=1 and jobs=4"
  | Checkpoint_report_divergence -> "report differs between DCA_CHECKPOINT=journal and deep"
  | Containment_breach -> "an injected fault leaked outside its loop's containment boundary"
  | Static_divergence ->
      "static prover divergence: a statically proved verdict disagrees with the dynamic stage or \
       the oracle"

let kind_slug = function
  | Roundtrip_drift -> "roundtrip"
  | Generator_invalid -> "invalid"
  | False_non_commutative -> "false-noncomm"
  | Bogus_witness _ -> "bogus-witness"
  | Dca_crash -> "crash"
  | Jobs_report_divergence -> "jobs-divergence"
  | Checkpoint_report_divergence -> "checkpoint-divergence"
  | Containment_breach -> "containment-breach"
  | Static_divergence -> "static-divergence"

type violation = {
  vi_program : int;
  vi_kind : violation_kind;
  vi_detail : string;
  vi_source : string;
}

type config = {
  fz_seed : int;
  fz_count : int;
  fz_max_iters : int;
  fz_jobs : int;
  fz_metamorphic : bool;
  fz_fault_mode : bool;
  fz_static_xcheck : bool;
  fz_shrink : bool;
  fz_corpus : string option;
}

let default_config =
  {
    fz_seed = 42;
    fz_count = 100;
    fz_max_iters = 4;
    fz_jobs = 1;
    fz_metamorphic = true;
    fz_fault_mode = false;
    fz_static_xcheck = false;
    fz_shrink = true;
    fz_corpus = None;
  }

type result = { r_report : string; r_violations : violation list }

(* ------------------------------------------------------------------ *)
(* DCA under explicit jobs / checkpoint-mode settings                  *)
(* ------------------------------------------------------------------ *)

(* One full DCA session over [source]; returns the report and the
   decision of the loop whose header sits on [line] of main.
   [checkpoint] overrides the dynamic stage's store mode. *)
let dca_run ?(static = true) ?checkpoint ~jobs ~line source =
  let spec = Dca_core.Commutativity.make_run_spec ?checkpoint [] in
  Session.with_session
    ~options:Session.Options.(default |> with_jobs jobs |> with_static static |> with_spec spec)
    (Session.Source { file = "<fuzz>"; source; input = [] })
    (fun s ->
      let results = Session.dca_results s in
      let report = Session.report s in
      let dec =
        List.find_opt
          (fun (r : Driver.loop_result) ->
            r.Driver.lr_loop.Loops.l_func = "main" && r.Driver.lr_loop.Loops.l_loc.Loc.line = line)
          results
        |> Option.map (fun r -> r.Driver.lr_decision)
      in
      (report, dec))

(* Every loop of one full DCA session over [source], as
   (label, decision string, provenance) rows in report order. *)
let dca_run_all ?(static = true) ~jobs source =
  Session.with_session
    ~options:Session.Options.(default |> with_jobs jobs |> with_static static)
    (Session.Source { file = "<fuzz>"; source; input = [] })
    (fun s ->
      List.map
        (fun (r : Driver.loop_result) ->
          (r.Driver.lr_label, Driver.decision_to_string r.Driver.lr_decision, r.Driver.lr_provenance))
        (Session.dca_results s))

(* ------------------------------------------------------------------ *)
(* Witness-schedule recovery                                           *)
(* ------------------------------------------------------------------ *)

(* Non-commutative verdict messages name their schedule as
   "... under <sched>" or "... under <sched>: <trap detail>". *)
let witness_schedule why =
  let key = "under " in
  let klen = String.length key in
  let rec last_at i acc =
    if i + klen > String.length why then acc
    else last_at (i + 1) (if String.sub why i klen = key then Some (i + klen) else acc)
  in
  match last_at 0 None with
  | None -> None
  | Some start ->
      let stop = match String.index_from_opt why start ':' with Some j -> j | None -> String.length why in
      Schedule.of_string (String.trim (String.sub why start (stop - start)))

(* ------------------------------------------------------------------ *)
(* Fault-plan containment mode                                         *)
(* ------------------------------------------------------------------ *)

(* For every loop L of the program, re-analyze under a fresh plan
   holding one injected crash scoped to L's test: the session must
   complete, L must come back [Aborted], and no other loop's verdict may
   change — an injected fault must never leak across the containment
   boundary.  Each run has its own plan, scoped to the run, so runs are
   independent and the process plan is never touched. *)
let containment_violations ~jobs ~index source =
  let vio detail =
    { vi_program = index; vi_kind = Containment_breach; vi_detail = detail; vi_source = source }
  in
  match dca_run_all ~jobs source with
  | exception _ -> [] (* the primary run already reported this as Dca_crash *)
  | base ->
      let check_victim (victim, _, _) =
        let plan =
          Faultpoint.make
            [
              {
                Faultpoint.sp_site = "driver.loop";
                sp_ctx = Some victim;
                sp_nth = 1;
                sp_repeat = false;
                sp_action = Faultpoint.Raise;
              };
            ]
        in
        Faultpoint.with_plan plan (fun () ->
            match dca_run_all ~jobs source with
            | exception e ->
                [
                  vio
                    (Printf.sprintf "session died with %s under an injected fault at loop %s"
                       (Printexc.to_string e) victim);
                ]
            | faulted when List.length faulted <> List.length base ->
                [ vio (Printf.sprintf "loop set changed under an injected fault at %s" victim) ]
            | faulted ->
                List.concat
                  (List.map2
                     (fun (bl, bd, _) (fl, fd, _) ->
                       if fl <> bl then
                         [ vio (Printf.sprintf "loop order changed at %s (victim %s)" bl victim) ]
                       else if fl = victim then
                         if Faultpoint.is_injected_message fd then []
                         else
                           [
                             vio
                               (Printf.sprintf "victim %s reported %S, expected a contained abort"
                                  victim fd);
                           ]
                       else if fd <> bd then
                         [
                           vio
                             (Printf.sprintf "loop %s changed %S -> %S under a fault at %s" fl bd fd
                                victim);
                         ]
                       else [])
                     base faulted))
      in
      List.concat_map check_victim base

(* ------------------------------------------------------------------ *)
(* Static-prover differential mode                                     *)
(* ------------------------------------------------------------------ *)

(* Run the whole program with the static fast-path on and off and fail on
   any divergence a correct prover cannot produce:

   - a statically proved Commutative whose dynamic verdict (prover off)
     is non-commutative — the unsoundness the prover must never commit;
   - any verdict change at all on a loop the prover did *not* discharge
     (the prover is a pure pre-stage; enabling it must not perturb
     dynamic results);
   - a changed loop set, or a session death in either mode.

   A statically proved loop whose dynamic twin is [Untestable] (the loop
   was never executed by the workload) is *not* a divergence: the proof
   legitimately strengthens "could not test" into a verdict.  Finally,
   when the exhaustive oracle found a distinguishing permutation for the
   marked loop, a static proof of that loop is a divergence even if the
   sampled dynamic stage missed it too. *)
let static_xcheck_violations ~jobs ~index ~line ~oracle source =
  let vio detail =
    { vi_program = index; vi_kind = Static_divergence; vi_detail = detail; vi_source = source }
  in
  let is_noncomm d = String.length d >= 15 && String.sub d 0 15 = "non-commutative" in
  match (dca_run_all ~jobs source, dca_run_all ~static:false ~jobs source) with
  | exception e ->
      [ vio (Printf.sprintf "session raised during the on/off sweep: %s" (Printexc.to_string e)) ]
  | rows_on, rows_off ->
      if
        List.map (fun (l, _, _) -> l) rows_on <> List.map (fun (l, _, _) -> l) rows_off
      then [ vio "loop set differs between prover on and off" ]
      else
        List.concat
          (List.map2
             (fun (lab, d_on, prov) (_, d_off, _) ->
               match prov with
               | Driver.Static ->
                   if is_noncomm d_off then
                     [
                       vio
                         (Printf.sprintf "loop %s: statically proved commutative, dynamic says %S"
                            lab d_off);
                     ]
                   else []
               | Driver.Dynamic ->
                   if d_on <> d_off then
                     [
                       vio
                         (Printf.sprintf
                            "loop %s: dynamic verdict changed %S -> %S when the prover was \
                             disabled"
                            lab d_on d_off);
                     ]
                   else [])
             rows_on rows_off)
        @
        match oracle with
        | Oracle.Non_commutative _ ->
            let prefix = Printf.sprintf "main:%d(" line in
            let plen = String.length prefix in
            List.filter_map
              (fun (lab, d_on, prov) ->
                if
                  String.length lab >= plen
                  && String.sub lab 0 plen = prefix
                  && prov = Driver.Static && d_on = "commutative"
                then
                  Some
                    (vio
                       (Printf.sprintf
                          "loop %s: statically proved commutative, but the exhaustive oracle \
                           found a distinguishing permutation"
                          lab))
                else None)
              rows_on
        | _ -> []

(* ------------------------------------------------------------------ *)
(* Per-program cross-check                                             *)
(* ------------------------------------------------------------------ *)

type program_outcome = {
  po_oracle : Oracle.verdict;
  po_dca : Driver.decision option;
  po_violations : violation list;
}

(* Cross-check one source string.  All failure modes are turned into
   violations or counted outcomes; exceptions escape only for internal
   errors. *)
let check_source ?(jobs = 1) ?(metamorphic = true) ?(fault_mode = false)
    ?(static_xcheck = false) ~index source =
  let vio kind detail = { vi_program = index; vi_kind = kind; vi_detail = detail; vi_source = source } in
  match Parser.parse_program ~file:"<fuzz>" source with
  | exception Loc.Error (l, msg) ->
      {
        po_oracle = Oracle.Unsupported "parse error";
        po_dca = None;
        po_violations = [ vio Generator_invalid (Printf.sprintf "%s: %s" (Loc.to_string l) msg) ];
      }
  | ast -> (
      (* printer fixpoint: the printed form must re-parse, re-typecheck,
         and re-print to itself (hand-formatted corpus files may differ
         from the printed form; generated sources ARE the printed form) *)
      let reprint = Ast_printer.program_to_string ast in
      let roundtrip =
        match Parser.parse_program ~file:"<roundtrip>" reprint with
        | exception Loc.Error (_, msg) -> [ vio Roundtrip_drift ("re-parse failed: " ^ msg) ]
        | ast2 -> (
            if Ast_printer.program_to_string ast2 <> reprint then
              [ vio Roundtrip_drift "printer is not a fixpoint of parse-then-print" ]
            else
              match Typecheck.check_program ast2 with
              | _ -> []
              | exception Loc.Error (_, msg) ->
                  [ vio Roundtrip_drift ("re-typecheck failed: " ^ msg) ])
      in
      match Oracle.find_marked_loop ast with
      | Error msg ->
          {
            po_oracle = Oracle.Unsupported "no marked loop";
            po_dca = None;
            po_violations = roundtrip @ [ vio Generator_invalid msg ];
          }
      | Ok spec -> (
          let oracle = Oracle.decide ~input:[] ast spec in
          match dca_run ~jobs ~line:spec.Oracle.sp_line source with
          | exception Loc.Error (l, msg) ->
              {
                po_oracle = oracle;
                po_dca = None;
                po_violations =
                  roundtrip @ [ vio Generator_invalid (Printf.sprintf "%s: %s" (Loc.to_string l) msg) ];
              }
          | exception e ->
              (* an internal DCA failure is a finding, not a fuzzer abort *)
              {
                po_oracle = oracle;
                po_dca = None;
                po_violations = roundtrip @ [ vio Dca_crash (Printexc.to_string e) ];
              }
          | report1, dec ->
              let soundness =
                match dec with
                | None -> [ vio Generator_invalid "marked loop not found in DCA results" ]
                | Some (Driver.Non_commutative why) -> (
                    match oracle with
                    | Oracle.Commutative -> [ vio False_non_commutative why ]
                    | Oracle.Non_commutative _ | Oracle.Unsupported _ -> (
                        match witness_schedule why with
                        | None -> []
                        | Some sched -> (
                            let perm = Schedule.apply sched spec.Oracle.sp_trip in
                            match oracle with
                            | Oracle.Unsupported _ -> []
                            | _ -> (
                                match Oracle.check_witness ~input:[] ast spec perm with
                                | `Mismatch | `Error _ -> []
                                | `Match ->
                                    [ vio (Bogus_witness (Schedule.to_string sched)) why ]))))
                | Some (Driver.Aborted { ab_cause = Driver.Crash { exn; _ }; _ }) ->
                    (* with crash containment the pipeline no longer dies;
                       a contained analyzer crash is the same finding *)
                    [ vio Dca_crash ("contained: " ^ exn) ]
                | Some _ -> []
              in
              let metamorphic_v =
                if not metamorphic then []
                else begin
                  try
                  let rep_j1 =
                    if jobs = 1 then report1 else fst (dca_run ~jobs:1 ~line:spec.Oracle.sp_line source)
                  in
                  let rep_j4 =
                    if jobs = 4 then report1 else fst (dca_run ~jobs:4 ~line:spec.Oracle.sp_line source)
                  in
                  let rep_deep =
                    fst (dca_run ~checkpoint:Dca_interp.Store.Deep ~jobs:1 ~line:spec.Oracle.sp_line source)
                  in
                  (if rep_j1 <> rep_j4 then [ vio Jobs_report_divergence "" ] else [])
                  @ (if rep_j1 <> rep_deep then [ vio Checkpoint_report_divergence "" ] else [])
                  with e -> [ vio Dca_crash (Printexc.to_string e) ]
                end
              in
              let containment_v =
                if not fault_mode then [] else containment_violations ~jobs ~index source
              in
              let static_v =
                if not static_xcheck then []
                else
                  static_xcheck_violations ~jobs ~index ~line:spec.Oracle.sp_line ~oracle source
              in
              {
                po_oracle = oracle;
                po_dca = dec;
                po_violations = roundtrip @ soundness @ metamorphic_v @ containment_v @ static_v;
              }))

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Predicate: does [kind] still reproduce on this candidate AST?  Any
   breakage (parse/type error, lost marker, trap in the golden run) makes
   the candidate uninteresting. *)
let still_fails ~kind (p : Ast.program) =
  match
    let src = Ast_printer.program_to_string p in
    match kind with
    | Roundtrip_drift -> Ast_printer.program_to_string (Parser.parse_program ~file:"<shrink>" src) <> src
    | Generator_invalid -> false
    | _ -> (
        let ast = Parser.parse_program ~file:"<shrink>" src in
        match Oracle.find_marked_loop ast with
        | Error _ -> false
        | Ok spec -> (
            match kind with
            | Dca_crash -> (
                match dca_run ~jobs:1 ~line:spec.Oracle.sp_line src with
                | _, Some (Driver.Aborted { ab_cause = Driver.Crash _; _ }) -> true
                | _ -> false
                | exception Loc.Error _ -> false
                | exception _ -> true)
            | Containment_breach -> containment_violations ~jobs:1 ~index:0 src <> []
            | Static_divergence ->
                static_xcheck_violations ~jobs:1 ~index:0 ~line:spec.Oracle.sp_line
                  ~oracle:(Oracle.decide ~input:[] ast spec)
                  src
                <> []
            | False_non_commutative -> (
                match dca_run ~jobs:1 ~line:spec.Oracle.sp_line src with
                | _, Some (Driver.Non_commutative _) ->
                    Oracle.decide ~input:[] ast spec = Oracle.Commutative
                | _ -> false)
            | Bogus_witness _ -> (
                match dca_run ~jobs:1 ~line:spec.Oracle.sp_line src with
                | _, Some (Driver.Non_commutative why) -> (
                    match witness_schedule why with
                    | None -> false
                    | Some sched -> (
                        match Oracle.decide ~input:[] ast spec with
                        | Oracle.Unsupported _ -> false
                        | _ ->
                            Oracle.check_witness ~input:[] ast spec
                              (Schedule.apply sched spec.Oracle.sp_trip)
                            = `Match))
                | _ -> false)
            | Jobs_report_divergence ->
                fst (dca_run ~jobs:1 ~line:spec.Oracle.sp_line src)
                <> fst (dca_run ~jobs:4 ~line:spec.Oracle.sp_line src)
            | Checkpoint_report_divergence ->
                fst (dca_run ~jobs:1 ~line:spec.Oracle.sp_line src)
                <> fst (dca_run ~checkpoint:Dca_interp.Store.Deep ~jobs:1 ~line:spec.Oracle.sp_line src)
            | Roundtrip_drift | Generator_invalid -> false))
  with
  | r -> r
  | exception _ -> false

let shrink_violation v =
  match v.vi_kind with
  | Generator_invalid -> v
  | kind -> (
      match Parser.parse_program ~file:"<shrink>" v.vi_source with
      | exception _ -> v
      | ast ->
          if not (still_fails ~kind ast) then v
          else
            let minimal = Shrink.program ~keep:(still_fails ~kind) ~max_evals:300 ast in
            { v with vi_source = Ast_printer.program_to_string minimal })

(* ------------------------------------------------------------------ *)
(* Corpus output                                                       *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_repro cfg v =
  match cfg.fz_corpus with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let file =
        Filename.concat dir
          (Printf.sprintf "repro-seed%d-p%03d-%s.mc" cfg.fz_seed v.vi_program (kind_slug v.vi_kind))
      in
      let oc = open_out file in
      Printf.fprintf oc "// dca fuzz counterexample: %s\n" (violation_kind_to_string v.vi_kind);
      if v.vi_detail <> "" then Printf.fprintf oc "// detail: %s\n" v.vi_detail;
      Printf.fprintf oc "// reproduce: dca fuzz --seed %d --count %d --max-iters %d\n\n" cfg.fz_seed
        cfg.fz_count cfg.fz_max_iters;
      output_string oc v.vi_source;
      close_out oc

(* ------------------------------------------------------------------ *)
(* The run loop and its deterministic report                           *)
(* ------------------------------------------------------------------ *)

let run cfg =
  let max_iters = max 2 (min Oracle.max_trip cfg.fz_max_iters) in
  let root = Prng.create cfg.fz_seed in
  let recipe_counts = Hashtbl.create 16 and trip_counts = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  let ct tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let oracle_comm = ref 0 and oracle_noncomm = ref 0 and oracle_unsup = ref 0 in
  let dca_comm = ref 0 and dca_noncomm = ref 0 and dca_untestable = ref 0 in
  let dca_rejected = ref 0 and dca_aborted = ref 0 and dca_missing = ref 0 in
  let agree_comm = ref 0 and confirmed_noncomm = ref 0 and missed = ref 0 and no_claim = ref 0 in
  let violations = ref [] in
  for index = 0 to cfg.fz_count - 1 do
    let rng = Prng.split root in
    let g = Gen_program.generate ~max_iters rng in
    List.iter (fun r -> bump recipe_counts (Gen_program.recipe_to_string r)) g.Gen_program.g_recipes;
    bump trip_counts g.Gen_program.g_trip;
    let out =
      check_source ~jobs:cfg.fz_jobs ~metamorphic:cfg.fz_metamorphic
        ~fault_mode:cfg.fz_fault_mode ~static_xcheck:cfg.fz_static_xcheck ~index
        g.Gen_program.g_source
    in
    (match out.po_oracle with
    | Oracle.Commutative -> incr oracle_comm
    | Oracle.Non_commutative _ -> incr oracle_noncomm
    | Oracle.Unsupported _ -> incr oracle_unsup);
    (match out.po_dca with
    | Some Driver.Commutative -> incr dca_comm
    | Some (Driver.Non_commutative _) -> incr dca_noncomm
    | Some (Driver.Untestable _) -> incr dca_untestable
    | Some (Driver.Rejected _) -> incr dca_rejected
    | Some (Driver.Aborted _) -> incr dca_aborted
    | Some (Driver.Subsumed _) | None -> incr dca_missing);
    (match (out.po_oracle, out.po_dca) with
    | Oracle.Commutative, Some Driver.Commutative -> incr agree_comm
    | Oracle.Non_commutative _, Some (Driver.Non_commutative _) -> incr confirmed_noncomm
    | Oracle.Non_commutative _, Some Driver.Commutative -> incr missed
    | _, Some (Driver.Untestable _ | Driver.Rejected _ | Driver.Aborted _) -> incr no_claim
    | _ -> ());
    let shrunk =
      if cfg.fz_shrink then List.map shrink_violation out.po_violations
      else out.po_violations
    in
    List.iter (write_repro cfg) shrunk;
    violations := List.rev_append shrunk !violations
  done;
  let violations = List.rev !violations in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "dca fuzz: seed=%d count=%d max-iters=%d metamorphic=%s fault-mode=%s static-xcheck=%s \
     shrink=%s"
    cfg.fz_seed cfg.fz_count max_iters
    (if cfg.fz_metamorphic then "on" else "off")
    (if cfg.fz_fault_mode then "on" else "off")
    (if cfg.fz_static_xcheck then "on" else "off")
    (if cfg.fz_shrink then "on" else "off");
  line "recipes: %s"
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%s=%d" r (ct recipe_counts r))
          [ "affine"; "indirect"; "same-cell"; "reduction"; "carried"; "cond"; "chase"; "nest"; "io" ]));
  line "trips: %s"
    (String.concat " "
       (List.filter_map
          (fun t -> if ct trip_counts t > 0 then Some (Printf.sprintf "%d=%d" t (ct trip_counts t)) else None)
          [ 2; 3; 4; 5; 6; 7 ]));
  line "oracle: commutative=%d non-commutative=%d unsupported=%d" !oracle_comm !oracle_noncomm
    !oracle_unsup;
  line "dca: commutative=%d non-commutative=%d untestable=%d rejected=%d aborted=%d missing=%d"
    !dca_comm !dca_noncomm !dca_untestable !dca_rejected !dca_aborted !dca_missing;
  line "cross-check: agree-commutative=%d confirmed-non-commutative=%d missed-by-sampling=%d no-claim=%d"
    !agree_comm !confirmed_noncomm !missed !no_claim;
  line "violations: %d" (List.length violations);
  List.iteri
    (fun i v ->
      line "";
      line "VIOLATION %d: program #%d: %s%s" (i + 1) v.vi_program
        (violation_kind_to_string v.vi_kind)
        (if v.vi_detail <> "" then ": " ^ v.vi_detail else "");
      line "--- shrunk reproducer ---";
      Buffer.add_string buf v.vi_source;
      line "--- end reproducer ---")
    violations;
  { r_report = Buffer.contents buf; r_violations = violations }

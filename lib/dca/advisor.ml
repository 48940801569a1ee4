open Dca_analysis
open Dca_parallel

type recommendation =
  | Parallelize
  | Parallelize_with_review of string
  | Not_profitable of string
  | Keep_sequential of string

type advice = {
  ad_loop : Loops.loop;
  ad_label : string;
  ad_recommendation : recommendation;
  ad_pragma : string option;
  ad_loop_speedup : float option;
  ad_coverage : float;
  ad_notes : string list;
}

let advise ?(machine = Machine.default) info profile (results : Driver.loop_result list) =
  let advice_of (r : Driver.loop_result) =
    let id = r.Driver.lr_loop.Loops.l_id in
    let coverage = Dca_profiling.Depprof.coverage_of profile [ id ] in
    let loop_speedup =
      match Dca_profiling.Depprof.loop_profile profile id with
      | Some lp when lp.Dca_profiling.Depprof.lp_total_cost > 0 ->
          let reductions = List.length (Planner.reductions_of info id) in
          let par = Planner.parallel_cost ~machine lp ~reductions in
          if par > 0.0 then Some (float_of_int lp.Dca_profiling.Depprof.lp_total_cost /. par)
          else None
      | _ -> None
    in
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    (match r.Driver.lr_outcome with
    | Some oc ->
        note "tested %d dynamic invocation(s)" oc.Commutativity.oc_invocations;
        if oc.Commutativity.oc_promotions > 0 then
          note "worklist idiom: %d slice promotion(s) were needed" oc.Commutativity.oc_promotions;
        if oc.Commutativity.oc_escalated then
          note "strict live-out state differed under permutation; whole-program outputs matched";
        if r.Driver.lr_decision = Driver.Commutative then begin
          match Proginfo.loop_by_id info id with
          | Some (fi, _) ->
              note "parallel skeleton: %s" (Skeleton.to_string (Skeleton.classify info fi oc))
          | None -> ()
        end
    | None -> ());
    (* A statically proved loop has no outcome record; say why instead of
       leaving an unexplained silence where the tested-invocations note
       would be.  The recommendation logic below is provenance-blind, so
       plans are identical with and without the fast-path. *)
    (match (r.Driver.lr_provenance, r.Driver.lr_decision) with
    | Driver.Static, Driver.Commutative ->
        note "proved commutative statically (affine dependence distances); no dynamic test was run"
    | _ -> ());
    let recommendation, pragma =
      match r.Driver.lr_decision with
      | Driver.Rejected reason -> (Keep_sequential (Candidate.rejection_to_string reason), None)
      | Driver.Non_commutative why -> (Keep_sequential ("order-dependent: " ^ why), None)
      | Driver.Untestable why -> (Keep_sequential ("could not be tested: " ^ why), None)
      | Driver.Aborted _ as d -> (Keep_sequential ("analysis " ^ Driver.decision_to_string d), None)
      | Driver.Subsumed parent ->
          (Not_profitable (Printf.sprintf "enclosing loop %s is already parallel" parent), None)
      | Driver.Commutative -> (
          let profitable = Planner.benefit_of ~machine info profile id > 0.0 in
          let pragma =
            Codegen.pragma ~privates:(Planner.privates_of info id)
              ~reductions:(Planner.reductions_of info id)
          in
          if not profitable then
            (Not_profitable "the launch overheads exceed the parallel gain at this input size", Some pragma)
          else
            match r.Driver.lr_outcome with
            | Some oc when oc.Commutativity.oc_escalated ->
                ( Parallelize_with_review
                    "verification relied on whole-program outputs; confirm no other consumer of \
                     the reordered state",
                  Some pragma )
            | Some oc when oc.Commutativity.oc_invocations <= 1 ->
                ( Parallelize_with_review
                    "only one dynamic invocation was observed; consider more inputs",
                  Some pragma )
            | _ -> (Parallelize, Some pragma))
    in
    {
      ad_loop = r.Driver.lr_loop;
      ad_label = r.Driver.lr_label;
      ad_recommendation = recommendation;
      ad_pragma = pragma;
      ad_loop_speedup = loop_speedup;
      ad_coverage = coverage;
      ad_notes = List.rev !notes;
    }
  in
  results |> List.map advice_of
  |> List.sort (fun a b -> compare b.ad_coverage a.ad_coverage)

let recommendation_to_string = function
  | Parallelize -> "PARALLELIZE"
  | Parallelize_with_review why -> "PARALLELIZE after review: " ^ why
  | Not_profitable why -> "leave serial (not profitable): " ^ why
  | Keep_sequential why -> "keep sequential: " ^ why

let to_string a =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s  [%.0f%% of execution%s]\n" a.ad_label (100.0 *. a.ad_coverage)
       (match a.ad_loop_speedup with
       | Some s -> Printf.sprintf ", loop speedup ~%.1fx" s
       | None -> ""));
  Buffer.add_string buf ("  " ^ recommendation_to_string a.ad_recommendation ^ "\n");
  (match a.ad_pragma with
  | Some p -> Buffer.add_string buf ("  " ^ p ^ "\n")
  | None -> ());
  List.iter (fun n -> Buffer.add_string buf ("  - " ^ n ^ "\n")) a.ad_notes;
  Buffer.contents buf

let report advices =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Parallelism advisory (hottest loops first):\n\n";
  List.iter (fun a -> Buffer.add_string buf (to_string a ^ "\n")) advices;
  Buffer.contents buf

open Dca_analysis

let pragma ~privates ~reductions =
  let priv = match privates with [] -> "" | l -> " private(" ^ String.concat ", " l ^ ")" in
  let reds =
    String.concat ""
      (List.map
         (fun (name, op) ->
           Printf.sprintf " reduction(%s:%s)" (Scalars.reduction_op_to_string op) name)
         reductions)
  in
  "#pragma omp parallel for schedule(static)" ^ priv ^ reds

let plan_pragma (lp : Plan.loop_plan) =
  pragma ~privates:lp.Plan.lp_private ~reductions:lp.Plan.lp_reductions

let pragma_line lp = "// " ^ plan_pragma lp

let plan_to_string plan =
  String.concat "\n"
    (List.map (fun lp -> plan_pragma lp ^ "  // " ^ lp.Plan.lp_label) plan.Plan.plan_loops)

let annotate_source info ~source plan =
  let lines = String.split_on_char '\n' source |> Array.of_list in
  (* line number (1-based) → pragmas to insert above it *)
  let inserts : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let unplaced = ref [] in
  List.iter
    (fun lp ->
      match Proginfo.loop_by_id info lp.Plan.lp_loop_id with
      | Some (_, loop) ->
          let line = loop.Loops.l_loc.Dca_frontend.Loc.line in
          if line >= 1 && line <= Array.length lines then
            Hashtbl.replace inserts line
              (pragma_line lp :: (try Hashtbl.find inserts line with Not_found -> []))
          else unplaced := lp :: !unplaced
      | None -> unplaced := lp :: !unplaced)
    plan.Plan.plan_loops;
  let buf = Buffer.create (String.length source + 256) in
  Array.iteri
    (fun idx text ->
      let lineno = idx + 1 in
      (match Hashtbl.find_opt inserts lineno with
      | Some pragmas ->
          let indent =
            let n = ref 0 in
            while !n < String.length text && text.[!n] = ' ' do
              incr n
            done;
            String.make !n ' '
          in
          List.iter (fun p -> Buffer.add_string buf (indent ^ p ^ "\n")) pragmas
      | None -> ());
      Buffer.add_string buf text;
      if idx < Array.length lines - 1 then Buffer.add_char buf '\n')
    lines;
  List.iter
    (fun lp ->
      Buffer.add_string buf
        (Printf.sprintf "\n// NOTE: loop %s was planned but its source line could not be recovered:\n%s\n"
           lp.Plan.lp_loop_id (pragma_line lp)))
    !unplaced;
  Buffer.contents buf

(* A name declared in a loop's body is block-scoped in the exported C,
   hence private already, and leaves the loop's [private] clause. *)
let export_c info ~file ~source plan =
  let ast = Dca_frontend.Parser.parse_program ~file source in
  let pragmas =
    List.filter_map
      (fun lp ->
        match Proginfo.loop_by_id info lp.Plan.lp_loop_id with
        | Some (_, loop) ->
            let line = loop.Loops.l_loc.Dca_frontend.Loc.line in
            let inner = Dca_frontend.C_export.body_declared_names ast ~line in
            let privates = List.filter (fun n -> not (List.mem n inner)) lp.Plan.lp_private in
            Some (line, pragma ~privates ~reductions:lp.Plan.lp_reductions)
        | None -> None)
      plan.Plan.plan_loops
  in
  Dca_frontend.C_export.export ~pragmas ast

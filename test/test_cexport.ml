(* Differential testing of the C exporter: every benchmark, exported to
   C99 and compiled with the system C compiler, must print exactly the
   lines the interpreter prints.  This cross-checks the interpreter's
   semantics (arithmetic, layout, generators) against gcc.  Skipped when
   no C compiler is installed. *)

open Dca_progs

let cc = if Sys.command "command -v gcc > /dev/null 2> /dev/null" = 0 then Some "gcc" else None

let run_interpreter bm =
  let prog = Benchmark.compile bm in
  let ctx = Dca_interp.Eval.create ~input:bm.Benchmark.bm_input prog in
  Dca_interp.Eval.run_main ctx;
  Dca_interp.Eval.outputs ctx

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let run_compiled compiler bm =
  let dir = Filename.temp_file "dca_cexport" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let c_file = Filename.concat dir "prog.c" in
      let exe = Filename.concat dir "prog" in
      let out = Filename.concat dir "out.txt" in
      let input = Filename.concat dir "input.txt" in
      write_file c_file
        (Dca_frontend.C_export.export
           (Dca_frontend.Parser.parse_program ~file:"prog.mc" bm.Benchmark.bm_source));
      write_file input (String.concat " " (List.map string_of_int bm.Benchmark.bm_input));
      let compile_cmd =
        Printf.sprintf "%s -O1 -o %s %s -lm 2> %s/cc.err" compiler (Filename.quote exe)
          (Filename.quote c_file) (Filename.quote dir)
      in
      if Sys.command compile_cmd <> 0 then
        Alcotest.failf "%s: C compilation failed:\n%s" bm.Benchmark.bm_name
          (String.concat "\n" (read_lines (Filename.concat dir "cc.err")));
      let run_cmd =
        Printf.sprintf "%s < %s > %s" (Filename.quote exe) (Filename.quote input)
          (Filename.quote out)
      in
      if Sys.command run_cmd <> 0 then Alcotest.failf "%s: compiled binary failed" bm.Benchmark.bm_name;
      read_lines out)

let differential_case compiler bm =
  Alcotest.test_case (bm.Benchmark.bm_name ^ " matches gcc") `Slow (fun () ->
      Alcotest.(check (list string))
        bm.Benchmark.bm_name (run_interpreter bm) (run_compiled compiler bm))

let test_pragma_insertion () =
  let src = "int a[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i; } printi(a[1]); }" in
  let ast = Dca_frontend.Parser.parse_program ~file:"<t>" src in
  let loop_line =
    match (List.hd ast.Dca_frontend.Ast.funcs).Dca_frontend.Ast.f_body with
    | _ :: { Dca_frontend.Ast.sdesc = Dca_frontend.Ast.Sfor _; sloc; _ } :: _ ->
        sloc.Dca_frontend.Loc.line
    | _ -> Alcotest.fail "unexpected shape"
  in
  let c =
    Dca_frontend.C_export.export
      ~pragmas:[ (loop_line, "#pragma omp parallel for schedule(static)") ]
      ast
  in
  let has_pragma =
    String.split_on_char '\n' c
    |> List.exists (fun l -> String.trim l = "#pragma omp parallel for schedule(static)")
  in
  Alcotest.(check bool) "pragma emitted" true has_pragma

let suites =
  match cc with
  | None ->
      [ ( "c-export",
          [
            Alcotest.test_case "pragmas" `Quick test_pragma_insertion;
            Alcotest.test_case "no C compiler installed (differential tests skipped)" `Quick
              (fun () -> ());
          ] ) ]
  | Some compiler ->
      [
        ( "c-export",
          Alcotest.test_case "pragmas" `Quick test_pragma_insertion
          :: List.map (differential_case compiler) Registry.all );
      ]

(* The export-c pipeline with OpenMP pragmas: must compile under -fopenmp
   and, pinned to one thread (DCA's pragmas carry scalar reduction clauses
   but array read-modify-writes would need atomics for true concurrency),
   reproduce the interpreter's outputs exactly.  The C is what
   [dca export-c] prints: {!Dca_parallel.Codegen.export_c} of the
   session's plan, with one pragma per planned loop (a [while] loop's
   commented out).  Every registry program's plan is non-empty, so each
   case also checks that the export carries pragmas at all: a planner
   that stopped planning would otherwise pass here with serial C. *)
let run_openmp compiler bm =
  let dir = Filename.temp_file "dca_omp" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let module Session = Dca_core.Session in
      let c_source, planned =
        Session.with_session
          ~options:Session.Options.(default |> with_jobs 1)
          (Session.Benchmark bm)
          (fun s ->
            let plan = Session.plan s in
            ( Dca_parallel.Codegen.export_c (Session.proginfo s) ~file:"prog.mc"
                ~source:bm.Benchmark.bm_source plan,
              List.length plan.Dca_parallel.Plan.plan_loops ))
      in
      let marker = "#pragma omp parallel for" in
      let m = String.length marker in
      let has_pragma l =
        let rec at i = i + m <= String.length l && (String.sub l i m = marker || at (i + 1)) in
        at 0
      in
      let pragmas = List.length (List.filter has_pragma (String.split_on_char '\n' c_source)) in
      Alcotest.(check bool) (bm.Benchmark.bm_name ^ " has pragmas") true (pragmas > 0);
      Alcotest.(check int) (bm.Benchmark.bm_name ^ ": a pragma per planned loop") planned pragmas;
      let c_file = Filename.concat dir "prog.c" in
      let exe = Filename.concat dir "prog" in
      let out = Filename.concat dir "out.txt" in
      let input = Filename.concat dir "input.txt" in
      write_file c_file c_source;
      write_file input (String.concat " " (List.map string_of_int bm.Benchmark.bm_input));
      let compile_cmd =
        Printf.sprintf "%s -fopenmp -O1 -o %s %s -lm 2> %s/cc.err" compiler (Filename.quote exe)
          (Filename.quote c_file) (Filename.quote dir)
      in
      if Sys.command compile_cmd <> 0 then
        Alcotest.failf "%s: OpenMP compilation failed:\n%s" bm.Benchmark.bm_name
          (String.concat "\n" (read_lines (Filename.concat dir "cc.err")));
      let run_cmd =
        Printf.sprintf "OMP_NUM_THREADS=1 %s < %s > %s" (Filename.quote exe)
          (Filename.quote input) (Filename.quote out)
      in
      if Sys.command run_cmd <> 0 then Alcotest.failf "%s: OpenMP binary failed" bm.Benchmark.bm_name;
      read_lines out)

let openmp_case compiler bm =
  Alcotest.test_case (bm.Benchmark.bm_name ^ " OpenMP export") `Slow (fun () ->
      Alcotest.(check (list string)) bm.Benchmark.bm_name (run_interpreter bm) (run_openmp compiler bm))

let suites =
  match cc with
  | None -> suites
  | Some compiler -> suites @ [ ("c-export-openmp", List.map (openmp_case compiler) Registry.all) ]

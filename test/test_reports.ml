(* The registry's reports, byte for byte.  [test/expected/analyze-P.txt]
   is the output of [dca analyze P --jobs 1] for each registry program P.
   A change to the evaluator, the recorder, the replays or the digests
   that is meant to be a pure speed-up must leave every report as it is,
   at one domain and at two; a change that moves a verdict on purpose
   regenerates the files and says why. *)

module Session = Dca_core.Session

let expected_dir = if Sys.file_exists "expected" then "expected" else Filename.concat "test" "expected"

let report bm jobs =
  Session.with_session
    ~options:Session.Options.(default |> with_jobs jobs)
    (Session.Benchmark bm) Session.report

let test_reports jobs () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) ->
      let file = Filename.concat expected_dir ("analyze-" ^ bm.bm_name ^ ".txt") in
      let expected = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check string) (Printf.sprintf "%s at --jobs %d" bm.bm_name jobs) expected (report bm jobs))
    Dca_progs.Registry.all

let suites =
  [
    ( "registry-reports",
      [
        Alcotest.test_case "dca analyze --jobs 1 is unchanged" `Quick (test_reports 1);
        Alcotest.test_case "dca analyze --jobs 2 is unchanged" `Quick (test_reports 2);
      ] );
  ]

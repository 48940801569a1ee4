(* Unit tests of the suite's statistics and span folding. *)

open Benchsuite
module Telemetry = Dca_support.Telemetry

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "one" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  Alcotest.check feq "q1 of 3" 1.0 q1;
  Alcotest.check feq "q2 of 3" 2.0 q2;
  Alcotest.check feq "q3 of 3" 3.0 q3;
  let q1, _, q3 = Stats.quartiles [ 10.; 20. ] in
  Alcotest.check feq "q1 of 2" 7.5 q1;
  Alcotest.check feq "q3 of 2" 22.5 q3

let test_geomean () =
  Alcotest.check feq "2 and 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check feq "constant" 3.0 (Stats.geomean [ 3.0; 3.0; 3.0 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: samples must be positive")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_percentile () =
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.0))) "p90 of 100" (Some 90.0) (Stats.percentile 90 (ints 100));
  Alcotest.(check (option (float 0.0))) "p90 of 99: 9 beyond" None (Stats.percentile 90 (ints 99));
  Alcotest.(check (option (float 0.0))) "p99 of 1000" (Some 990.0) (Stats.percentile 99 (ints 1000));
  Alcotest.(check (option (float 0.0))) "p99 of 999" None (Stats.percentile 99 (ints 999));
  Alcotest.(check (option (float 0.0))) "p75 of 48" (Some 36.0) (Stats.percentile 75 (ints 48));
  Alcotest.(check (option (float 0.0))) "unsorted input" (Some 90.0)
    (Stats.percentile 90 (List.rev (ints 100)));
  Alcotest.(check (option (float 0.0))) "empty" None (Stats.percentile 50 [])

let test_mean_beyond () =
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 1e-9))) "beyond p90 of 100" (Some 95.5) (Stats.mean_beyond 90 (ints 100));
  Alcotest.(check (option (float 1e-9))) "beyond p75 of 48" (Some 42.5) (Stats.mean_beyond 75 (ints 48));
  Alcotest.(check (option (float 0.0))) "9 beyond" None (Stats.mean_beyond 90 (ints 99))

(* Two readings, of 250 us (the reference) and 500 us, at 0-10 and
   110-120: the stretch between them runs at the pace of their mean. *)
let test_pace () =
  let r a b k = { Pace.r_start = a; r_end = b; r_ns = k } in
  let rs = [ r 0 10 250_000.0; r 110 120 500_000.0 ] in
  let at a b = Pace.at_pace rs a b in
  Alcotest.check feq "between" (100.0 *. 250.0 /. 375.0) (at 10 110);
  Alcotest.check feq "a reading counts for nothing" (at 10 110) (at 5 115);
  Alcotest.check feq "before the first, at its pace" 20.0 (at (-20) 0);
  Alcotest.check feq "after the last, at its pace" 40.0 (at 120 200);
  Alcotest.check feq "no readings: as measured" 7.0 (Pace.at_pace [] 3 10)

let ev ph name ts tid =
  { Telemetry.e_ph = ph; e_name = name; e_cat = ""; e_ts = ts; e_tid = tid; e_args = [] }

let totals folded cls =
  match List.assoc_opt cls folded with
  | Some t -> (t.Spans.self_ns, t.Spans.incl_ns, t.Spans.count)
  | None -> (0, 0, 0)

(* Two domains, grouped the way Telemetry.events returns them: tid 1's
   loop holds a golden run and two replays of one class; tid 2 runs a
   replay of its own. *)
let test_fold () =
  let events =
    [
      ev 'B' "loop main:3(d1)" 0 1;
      ev 'B' "examine" 0 1;
      ev 'E' "examine" 10 1;
      ev 'B' "golden" 10 1;
      ev 'E' "golden" 40 1;
      ev 'B' "replay reverse" 40 1;
      ev 'E' "replay reverse" 60 1;
      ev 'i' "note" 61 1;
      ev 'B' "replay shuffle#1" 60 1;
      ev 'E' "replay shuffle#1" 90 1;
      ev 'E' "loop main:3(d1)" 100 1;
      ev 'B' "replay reverse" 5 2;
      ev 'E' "replay reverse" 12 2;
    ]
  in
  let f = Spans.fold events in
  Alcotest.(check (triple int int int)) "loop" (10, 100, 1) (totals f "loop");
  Alcotest.(check (triple int int int)) "examine" (10, 10, 1) (totals f "examine");
  Alcotest.(check (triple int int int)) "golden" (30, 30, 1) (totals f "golden");
  Alcotest.(check (triple int int int)) "replay over both tids" (57, 57, 3) (totals f "replay");
  let self_sum = List.fold_left (fun acc (_, t) -> acc + t.Spans.self_ns) 0 f in
  Alcotest.(check int) "self times add up to the roots" (100 + 7) self_sum;
  let since = Spans.fold ~since:40 events in
  Alcotest.(check (triple int int int)) "since drops earlier spans" (0, 0, 0) (totals since "golden");
  Alcotest.(check (triple int int int)) "since keeps later ones" (50, 50, 2) (totals since "replay")

let unbalanced name events =
  match Spans.fold events with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Spans.Unbalanced _ -> ()

let test_unbalanced () =
  unbalanced "end without begin" [ ev 'E' "golden" 1 1 ];
  unbalanced "never ends" [ ev 'B' "loop x" 0 1; ev 'B' "golden" 1 1; ev 'E' "golden" 2 1 ];
  unbalanced "crossed" [ ev 'B' "a" 0 1; ev 'B' "b" 1 1; ev 'E' "a" 2 1; ev 'E' "b" 3 1 ];
  unbalanced "end on another tid" [ ev 'B' "a" 0 1; ev 'E' "a" 2 2 ]

let test_jsonl () =
  let e =
    Spans.event_of_jsonl
      {|{"ph":"E","pid":1,"tid":3,"ts":123456789,"name":"replay reverse","args":{"outcome":"match"}}|}
  in
  Alcotest.(check char) "ph" 'E' e.Telemetry.e_ph;
  Alcotest.(check string) "name" "replay reverse" e.Telemetry.e_name;
  Alcotest.(check int) "ts" 123456789 e.Telemetry.e_ts;
  Alcotest.(check int) "tid" 3 e.Telemetry.e_tid

let () =
  Alcotest.run "benchsuite-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "percentile needs ten beyond" `Quick test_percentile;
          Alcotest.test_case "mean beyond a percentile" `Quick test_mean_beyond;
          Alcotest.test_case "pace scaling" `Quick test_pace;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time fold, two tids" `Quick test_fold;
          Alcotest.test_case "unbalanced is an error" `Quick test_unbalanced;
          Alcotest.test_case "jsonl event" `Quick test_jsonl;
        ] );
    ]

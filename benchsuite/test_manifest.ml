(* BENCHMARK.json declares what the suite prints: its workload and metric
   sets must equal the suite's own (Schema), and the file must keep
   within the limits its readers enforce. *)

open Benchsuite
module Json = Dca_serve.Json

let manifest =
  lazy (Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let field k j = match Json.member k j with Some v -> v | None -> Alcotest.failf "missing key %S" k

let list k j =
  match Json.to_list_opt (field k j) with Some l -> l | None -> Alcotest.failf "%S: not a list" k

let str k j =
  match Json.to_str_opt (field k j) with Some s -> s | None -> Alcotest.failf "%S: not a string" k

let keys = function
  | Json.Obj kvs -> List.sort compare (List.map fst kvs)
  | _ -> Alcotest.fail "not an object"

let bound e =
  match field "bound" e with Json.Float f -> f | Json.Int n -> float_of_int n | _ -> nan

let name_ok s =
  let ok_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  String.length s > 0
  && String.length s <= 64
  && String.for_all ok_char s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let strings = Alcotest.(list string)

let test_shape () =
  let m = Lazy.force manifest in
  Alcotest.check strings "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (keys m);
  Alcotest.check strings "paths" [ "benchsuite" ] (List.filter_map Json.to_str_opt (list "paths" m));
  let secs = Option.value (Json.to_int_opt (field "run_seconds" m)) ~default:0 in
  Alcotest.(check bool) "run_seconds in 1..60" true (secs >= 1 && secs <= 60);
  Alcotest.(check bool) "at most 8 workloads" true (List.length (list "workloads" m) <= 8);
  Alcotest.(check bool) "at most 16 end-to-end metrics" true (List.length (list "end_to_end" m) <= 16);
  Alcotest.(check bool) "at most 128 layer metrics" true (List.length (list "per_layer" m) <= 128);
  let each k expected = List.iter (fun e -> Alcotest.check strings (k ^ " keys") expected (keys e)) (list k m) in
  each "workloads" [ "name"; "why" ];
  each "end_to_end" [ "better"; "bound"; "name"; "unit" ];
  each "per_layer" [ "better"; "name"; "unit" ]

let test_names () =
  let m = Lazy.force manifest in
  let names =
    List.concat_map (fun k -> List.map (str "name") (list k m)) [ "workloads"; "end_to_end"; "per_layer" ]
  in
  List.iter (fun n -> if not (name_ok n) then Alcotest.failf "bad name %S" n) names;
  Alcotest.(check int) "names are unique" (List.length names) (List.length (List.sort_uniq compare names))

let test_bounds () =
  List.iter
    (fun e -> if not (bound e > 0.0) then Alcotest.failf "%s: bound is not a positive share" (str "name" e))
    (list "end_to_end" (Lazy.force manifest))

(* The suite prints exactly the declared sets, with the declared units. *)
let test_agrees_with_suite () =
  let m = Lazy.force manifest in
  let declared k = List.map (fun e -> (str "name" e, str "unit" e, str "better" e)) (list k m) in
  let emitted =
    List.map (fun (x : Schema.metric) ->
        (x.Schema.name, x.Schema.unit, Schema.better_to_string x.Schema.better))
  in
  let triples = Alcotest.(list (triple string string string)) in
  Alcotest.check triples "end-to-end" (emitted Schema.end_to_end) (declared "end_to_end");
  Alcotest.check triples "per-layer" (emitted Schema.per_layer) (declared "per_layer");
  Alcotest.check strings "workloads" Schema.workloads (List.map (str "name") (list "workloads" m))

let () =
  Alcotest.run "benchsuite-manifest"
    [
      ( "BENCHMARK.json",
        [
          Alcotest.test_case "shape and limits" `Quick test_shape;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "agrees with the suite" `Quick test_agrees_with_suite;
        ] );
    ]

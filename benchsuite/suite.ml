(* The repository benchmark: one workload per invocation.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
               [--dca PATH] [--workdir DIR]

   Untraced runs (--trace 0) print the end-to-end metrics, traced runs
   (--trace 1) the per-layer ones; both check every output and print, as
   the last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Every time is at the
   reference pace (Pace).  The exit code is 0 only when every check
   passed.  benchsuite/README.md describes the workloads and the
   metrics. *)

open Common

let usage () =
  prerr_endline
    "usage: suite.exe --workload (registry|fuzz|serve-cold|serve-mixed) --seed N --seconds S --trace 0|1 \
     [--smoke] [--dca PATH] [--workdir DIR]";
  exit 2

let parse argv =
  let get k = List.assoc_opt k argv in
  let int k ~default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match get "--workload" with Some w when List.mem w Schema.workloads -> w | _ -> usage ()
  in
  {
    workload;
    seed = int "--seed" ~default:1;
    seconds = max 1 (int "--seconds" ~default:10);
    trace = (match get "--trace" with None | Some "0" -> false | Some "1" -> true | Some _ -> usage ());
    smoke = List.mem_assoc "--smoke" argv;
    dca = Option.value (get "--dca") ~default:"_build/default/bin/dca_cli.exe";
    workdir = Option.value (get "--workdir") ~default:".benchsuite";
  }

(* "--k v" pairs; a flag without a value maps to "". *)
let rec pairs = function
  | k :: v :: rest when String.length v < 2 || String.sub v 0 2 <> "--" -> (k, v) :: pairs rest
  | k :: rest -> (k, "") :: pairs rest
  | [] -> []

(* The workloads scale each end-to-end time by the pace around it; the
   per-layer times, sums over many items, are scaled here by the run's
   factor. *)
let output cfg o ~pace:(factor, readings) =
  let declared = if cfg.trace then Schema.per_layer else Schema.end_to_end in
  let scale = if cfg.trace then factor else 1.0 in
  let value (m : Schema.metric) =
    match Hashtbl.find_opt o.values m.Schema.name with
    | Some v when Float.is_finite v -> v *. (scale ** float_of_int (Schema.pace_power m))
    | Some _ -> failwith ("non-finite value for " ^ m.Schema.name)
    | None -> failwith ("no value for " ^ m.Schema.name)
  in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d%s\n" cfg.workload cfg.seed cfg.seconds
    (Bool.to_int cfg.trace) (if cfg.smoke then "  smoke" else "");
  Printf.printf "  pace: %d readings, median %.1f us against %.1f us (run factor %.4f)\n" readings
    (Pace.reference_ns /. factor /. 1e3) (Pace.reference_ns /. 1e3) factor;
  List.iter
    (fun (m : Schema.metric) ->
      Printf.printf "  %-36s %14.4f %-8s %s\n" m.Schema.name (value m) m.Schema.unit
        (Option.value (Hashtbl.find_opt o.notes m.Schema.name) ~default:""))
    declared;
  Printf.printf "  attempted %d  failed %d\n" o.attempted o.failed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev o.failures);
  let module Json = Dca_serve.Json in
  let metrics =
    List.map
      (fun (m : Schema.metric) ->
        (m.Schema.name, Json.Obj [ ("value", Json.Float (value m)); ("unit", Json.Str m.Schema.unit) ]))
      declared
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics);
          ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--setup-probe" ] -> Inproc.setup_probe ()
  | args ->
      let cfg = parse (pairs args) in
      let run =
        match cfg.workload with
        | "registry" -> Inproc.registry
        | "fuzz" -> Inproc.fuzz
        | "serve-cold" -> Served.serve_cold
        | _ -> Served.serve_mixed
      in
      let dir = Filename.concat cfg.workdir (string_of_int (Unix.getpid ())) in
      mkdir_p dir;
      (* every exit, a signal's included, stops the daemons and removes
         their sockets, caches and traces; a closed stdout raises instead
         of killing the process past that *)
      at_exit (fun () ->
          kill_children ();
          rm_rf dir;
          try Sys.rmdir cfg.workdir with Sys_error _ -> ());
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Pace.read ();
      let o = run { cfg with workdir = dir } in
      let pace = Pace.factor () in
      if cfg.trace then set o "pace.factor" (fst pace);
      output cfg o ~pace;
      exit (if o.failed = 0 && o.attempted > 0 then 0 else 1)

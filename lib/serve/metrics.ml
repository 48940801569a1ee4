(* The wire snapshot of a telemetry context (DESIGN.md §13): every
   registered counter, gauge and histogram of the daemon's context, as a
   plain value that round-trips through JSON (the [stats] protocol verb
   ships it to clients) and renders to a Prometheus-style text
   exposition — `dca client --metrics` and the `--metrics-file` scrape
   target.

   Histogram bucket counts are stored non-cumulative and summed into the
   Prometheus cumulative form at exposition time — a snapshot taken
   while observations are in flight is still internally consistent per
   cell (each count is exact; only the cross-cell view can lag by an
   in-flight observation). *)

module Telemetry = Dca_support.Telemetry

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * int) list;
  sn_hists : (string * Telemetry.hist_snapshot) list;
}

let snapshot ctx =
  {
    sn_counters = Telemetry.Ctx.counters ~gauge:false ctx;
    sn_gauges = Telemetry.Ctx.counters ~gauge:true ctx;
    sn_hists = Telemetry.Ctx.histograms ctx;
  }

(* Quantile estimate from the bucket counts, the standard Prometheus
   [histogram_quantile] interpolation: find the bucket holding the
   rank-th observation, assume observations are uniform inside it, and
   interpolate between its bounds.  The +Inf bucket has no upper bound
   to interpolate toward, so it clamps to the last finite bound — a
   deliberate under-estimate, like Prometheus. *)
let quantile h q =
  if h.Telemetry.hs_count <= 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.hs_count))) in
    let n_bounds = Array.length h.hs_bounds_ns in
    let rec find i cum =
      let cum' = cum + h.hs_counts.(i) in
      if cum' >= rank || i = n_bounds then (i, cum, h.hs_counts.(i))
      else find (i + 1) cum'
    in
    let i, below, in_bucket = find 0 0 in
    let lo = if i = 0 then 0 else h.hs_bounds_ns.(i - 1) in
    let hi = if i < n_bounds then h.hs_bounds_ns.(i) else h.hs_bounds_ns.(n_bounds - 1) in
    let ns =
      if i >= n_bounds || in_bucket <= 0 then float_of_int hi
      else
        float_of_int lo
        +. (float_of_int (hi - lo) *. (float_of_int (rank - below) /. float_of_int in_bucket))
    in
    ns /. 1e9
  end

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let snapshot_to_json s =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  let hist (n, h) =
    ( n,
      Json.Obj
        [
          ( "bounds_ns",
            Json.List (Array.to_list (Array.map (fun b -> Json.Int b) h.Telemetry.hs_bounds_ns)) );
          ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.hs_counts)));
          ("sum_ns", Json.Int h.hs_sum_ns);
          ("count", Json.Int h.hs_count);
        ] )
  in
  Json.Obj
    [
      ("counters", ints s.sn_counters);
      ("gauges", ints s.sn_gauges);
      ("histograms", Json.Obj (List.map hist s.sn_hists));
    ]

let snapshot_of_json j =
  let ints name =
    match Json.member name j with
    | Some (Json.Obj kvs) ->
        Ok
          (List.filter_map
             (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int_opt v))
             kvs)
    | _ -> Error (Printf.sprintf "metrics snapshot: missing %S object" name)
  in
  let hist (n, hj) =
    let int_array field =
      match Json.member field hj with
      | Some (Json.List xs) -> Some (Array.of_list (List.filter_map Json.to_int_opt xs))
      | _ -> None
    in
    match (int_array "bounds_ns", int_array "counts") with
    | Some bounds, Some counts
      when Array.length counts = Array.length bounds + 1 ->
        let int field =
          Option.value ~default:0 (Option.bind (Json.member field hj) Json.to_int_opt)
        in
        Some
          ( n,
            {
              Telemetry.hs_bounds_ns = bounds;
              hs_counts = counts;
              hs_sum_ns = int "sum_ns";
              hs_count = int "count";
            } )
    | _ -> None
  in
  match (ints "counters", ints "gauges") with
  | Ok counters, Ok gauges ->
      let hists =
        match Json.member "histograms" j with
        | Some (Json.Obj kvs) -> List.filter_map hist kvs
        | _ -> []
      in
      Ok { sn_counters = counters; sn_gauges = gauges; sn_hists = hists }
  | Error e, _ | _, Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Prometheus-style text exposition                                    *)
(* ------------------------------------------------------------------ *)

(* Grammar (a subset of the Prometheus text format, DESIGN.md §13):
   one `# TYPE name kind` comment per family, then one sample per line,
   histogram buckets cumulative with `le` in seconds and a closing
   `+Inf`, plus `_sum` (seconds) and `_count`. *)
let exposition s =
  let buf = Buffer.create 1024 in
  let sample name v = Buffer.add_string buf (Printf.sprintf "%s %d\n" name v) in
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
      sample n v)
    s.sn_counters;
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
      sample n v)
    s.sn_gauges;
  List.iter
    (fun (n, h) ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      Array.iteri
        (fun i bound ->
          cum := !cum + h.Telemetry.hs_counts.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" n
               (float_of_int bound /. 1e9)
               !cum))
        h.hs_bounds_ns;
      cum := !cum + h.hs_counts.(Array.length h.hs_bounds_ns);
      Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n !cum);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %.9f\n" n (float_of_int h.hs_sum_ns /. 1e9));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.hs_count))
    s.sn_hists;
  Buffer.contents buf

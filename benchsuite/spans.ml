(* Fold telemetry span events into per-class self and inclusive times.

   A span's self time is its duration minus the part covered by its
   direct children.  Events arrive grouped by recording domain and
   chronological within each domain (the order Telemetry.events and
   the daemon's JSONL trace both guarantee), so one stack per [tid]
   suffices.  A span's class is its name up to the first space: the
   library names per-loop and per-schedule spans "loop main:3(d1)",
   "replay reverse", "wp-run shuffle#2". *)

module Telemetry = Dca_support.Telemetry

exception Unbalanced of string

type totals = { self_ns : int; incl_ns : int; count : int }

let span_class name =
  match String.index_opt name ' ' with Some i -> String.sub name 0 i | None -> name

type frame = { f_name : string; f_ts : int; mutable f_child : int }

let unbalanced fmt = Printf.ksprintf (fun s -> raise (Unbalanced s)) fmt

(* [since]: spans that began earlier are folded for nesting but not
   counted — the serve daemon's trace also holds set-up requests. *)
let fold ?(since = min_int) (events : Telemetry.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let acc : (string, totals) Hashtbl.t = Hashtbl.create 16 in
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  let count top dur =
    let cls = span_class top.f_name in
    let t =
      Option.value (Hashtbl.find_opt acc cls) ~default:{ self_ns = 0; incl_ns = 0; count = 0 }
    in
    Hashtbl.replace acc cls
      { self_ns = t.self_ns + dur - top.f_child; incl_ns = t.incl_ns + dur; count = t.count + 1 }
  in
  List.iter
    (fun (e : Telemetry.event) ->
      match e.Telemetry.e_ph with
      | 'B' ->
          let frame = { f_name = e.e_name; f_ts = e.e_ts; f_child = 0 } in
          Hashtbl.replace stacks e.e_tid (frame :: stack e.e_tid)
      | 'E' -> (
          match stack e.e_tid with
          | [] -> unbalanced "end of %S on tid %d without a begin" e.e_name e.e_tid
          | top :: _ when top.f_name <> e.e_name ->
              unbalanced "end of %S closes %S on tid %d" e.e_name top.f_name e.e_tid
          | top :: rest ->
              let dur = e.e_ts - top.f_ts in
              (match rest with parent :: _ -> parent.f_child <- parent.f_child + dur | [] -> ());
              Hashtbl.replace stacks e.e_tid rest;
              if top.f_ts >= since then count top dur)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid st ->
      match st with [] -> () | top :: _ -> unbalanced "%S on tid %d never ends" top.f_name tid)
    stacks;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* One line of the daemon's JSONL trace sink. *)
let event_of_jsonl line =
  let module Json = Dca_serve.Json in
  let j = Json.of_string line in
  let str k = Option.bind (Json.member k j) Json.to_str_opt |> Option.value ~default:"" in
  let int k = Option.bind (Json.member k j) Json.to_int_opt |> Option.value ~default:0 in
  {
    Telemetry.e_ph = (match str "ph" with "" -> '?' | s -> s.[0]);
    e_name = str "name";
    e_cat = str "cat";
    e_ts = int "ts";
    e_tid = int "tid";
    e_args = [];
  }

let read_jsonl path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some "" -> go acc
        | Some l -> go (event_of_jsonl l :: acc)
      in
      go [])

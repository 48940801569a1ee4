exception Injected of string
exception Bad_plan of string

type action =
  | Raise
  | Trap
  | Fuel
  | Delay_ms of int

type spec = {
  sp_site : string;
  sp_ctx : string option;
  sp_nth : int;
  sp_repeat : bool;
  sp_action : action;
}

let injected_msg ?ctx name =
  match ctx with
  | None -> "injected fault at " ^ name
  | Some c -> Printf.sprintf "injected fault at %s[%s]" name c

let injected_marker = "injected fault at "

let is_injected_message msg =
  (* substring search: the marker may sit behind a prefix such as
     "trap under reverse: " *)
  let n = String.length injected_marker and m = String.length msg in
  let rec scan i = i + n <= m && (String.sub msg i n = injected_marker || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Plan text                                                           *)
(* ------------------------------------------------------------------ *)

let action_to_string = function
  | Raise -> "raise"
  | Trap -> "trap"
  | Fuel -> "fuel"
  | Delay_ms ms -> Printf.sprintf "delay:%d" ms

let spec_to_string s =
  Printf.sprintf "%s%s@%d%s=%s" s.sp_site
    (match s.sp_ctx with None -> "" | Some c -> "[" ^ c ^ "]")
    s.sp_nth
    (if s.sp_repeat then "+" else "")
    (action_to_string s.sp_action)

let plan_to_string plan = String.concat "; " (List.map spec_to_string plan)

let parse_action entry s =
  match s with
  | "raise" -> Ok Raise
  | "trap" -> Ok Trap
  | "fuel" -> Ok Fuel
  | _ when String.length s > 6 && String.sub s 0 6 = "delay:" -> (
      let ms = String.sub s 6 (String.length s - 6) in
      match int_of_string_opt ms with
      | Some ms when ms >= 0 -> Ok (Delay_ms ms)
      | _ -> Error (Printf.sprintf "%S: bad delay %S (want delay:MS)" entry ms))
  | _ -> Error (Printf.sprintf "%S: unknown action %S (want raise|trap|fuel|delay:MS)" entry s)

(* entry := site [ '[' ctx ']' ] [ '@' N [ '+' ] ] '=' action *)
let parse_entry entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "%S: missing '=action'" entry)
  | Some eq -> (
      let lhs = String.trim (String.sub entry 0 eq) in
      let rhs = String.trim (String.sub entry (eq + 1) (String.length entry - eq - 1)) in
      let site_ctx, nth_part =
        (* the '@' selector follows any ']' so a ctx may contain '@' *)
        let from = match String.rindex_opt lhs ']' with Some i -> i | None -> 0 in
        match String.index_from_opt lhs from '@' with
        | None -> (lhs, None)
        | Some at ->
            (String.sub lhs 0 at, Some (String.sub lhs (at + 1) (String.length lhs - at - 1)))
      in
      let site, ctx =
        match String.index_opt site_ctx '[' with
        | None -> (Ok site_ctx, None)
        | Some lb ->
            if String.length site_ctx > 0 && site_ctx.[String.length site_ctx - 1] = ']' then
              ( Ok (String.sub site_ctx 0 lb),
                Some (String.sub site_ctx (lb + 1) (String.length site_ctx - lb - 2)) )
            else (Error (Printf.sprintf "%S: unterminated '[ctx]'" entry), None)
      in
      let nth, repeat =
        match nth_part with
        | None -> (Ok 1, false)
        | Some n ->
            let n, repeat =
              if String.length n > 0 && n.[String.length n - 1] = '+' then
                (String.sub n 0 (String.length n - 1), true)
              else (n, false)
            in
            ( (match int_of_string_opt n with
              | Some k when k >= 1 -> Ok k
              | _ -> Error (Printf.sprintf "%S: bad hit index %S (want @N, N >= 1)" entry n)),
              repeat )
      in
      match (site, nth, parse_action entry rhs) with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok site, Ok nth, Ok action ->
          if site = "" then Error (Printf.sprintf "%S: empty site name" entry)
          else
            Ok { sp_site = site; sp_ctx = ctx; sp_nth = nth; sp_repeat = repeat; sp_action = action })

let parse text =
  let entries =
    String.split_on_char ';' text |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> ( match parse_entry e with Ok s -> go (s :: acc) rest | Error _ as err -> err)
  in
  go [] entries

(* ------------------------------------------------------------------ *)
(* Plans: the process plan and scoped ones                             *)
(* ------------------------------------------------------------------ *)

type armed_spec = { a_spec : spec; mutable a_hits : int }

(* An armed plan owns the hit counters of its entries; no entries is the
   disarmed plan.  Counters and [p_fired] change only under [mutex]. *)
type plan = { p_entries : armed_spec list; mutable p_fired : int }

let make specs = { p_entries = List.map (fun s -> { a_spec = s; a_hits = 0 }) specs; p_fired = 0 }

let mutex = Mutex.create ()

(* The process plan ([--faults], [DCA_FAULTS]) and the calling domain's
   scoped plan.  A domain sees the process plan until [with_plan] scopes
   another one, so code that never scopes a plan behaves as with a
   single process-wide plan. *)
let process = Atomic.make (make [])
let scoped_key : plan option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get scoped_key with Some p -> p | None -> Atomic.get process

let with_plan p f =
  let prev = Domain.DLS.get scoped_key in
  Domain.DLS.set scoped_key (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scoped_key prev) f

let env_inited = ref false
let explicitly_armed = ref false

let arm specs =
  Mutex.protect mutex (fun () ->
      explicitly_armed := true;
      Atomic.set process (make specs))

let arm_string text =
  match parse text with Ok specs -> arm specs | Error e -> raise (Bad_plan e)

let disarm () = arm []
let armed () = (current ()).p_entries <> []

let reset_hits () =
  let p = current () in
  Mutex.protect mutex (fun () -> List.iter (fun a -> a.a_hits <- 0) p.p_entries)

let init_from_env () =
  let run =
    Mutex.protect mutex (fun () ->
        if !env_inited || !explicitly_armed then false
        else begin
          env_inited := true;
          true
        end)
  in
  if run then
    match Sys.getenv_opt "DCA_FAULTS" with
    | None | Some "" -> ()
    | Some text -> arm_string text

let fired () =
  let p = current () in
  Mutex.protect mutex (fun () -> p.p_fired)

(* ------------------------------------------------------------------ *)
(* Sites and hits                                                      *)
(* ------------------------------------------------------------------ *)

type site = { s_name : string }

let sites : (string, site) Hashtbl.t = Hashtbl.create 16

let site name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt sites name with
      | Some s -> s
      | None ->
          let s = { s_name = name } in
          Hashtbl.add sites name s;
          s)

let site_name s = s.s_name

let known_sites () =
  Mutex.protect mutex (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) sites [])
  |> List.sort compare

type fire =
  | Pass
  | Fire_trap
  | Fire_fuel

let busy_wait_ms ms =
  let until = Telemetry.now_ns () + (ms * 1_000_000) in
  while Telemetry.now_ns () < until do
    Domain.cpu_relax ()
  done

let hit_slow p ctx site =
  let firing =
    Mutex.protect mutex (fun () ->
        List.fold_left
          (fun acc a ->
            if
              a.a_spec.sp_site = site.s_name
              && (match a.a_spec.sp_ctx with None -> true | Some c -> Some c = ctx)
            then begin
              a.a_hits <- a.a_hits + 1;
              let fires =
                if a.a_spec.sp_repeat then a.a_hits >= a.a_spec.sp_nth
                else a.a_hits = a.a_spec.sp_nth
              in
              if fires then begin
                p.p_fired <- p.p_fired + 1;
                match acc with None -> Some a.a_spec.sp_action | Some _ -> acc
              end
              else acc
            end
            else acc)
          None p.p_entries)
  in
  match firing with
  | None -> Pass
  | Some Raise -> raise (Injected (injected_msg ?ctx site.s_name))
  | Some Trap -> Fire_trap
  | Some Fuel -> Fire_fuel
  | Some (Delay_ms ms) ->
      busy_wait_ms ms;
      Pass

let hit ?ctx site =
  let p = current () in
  match p.p_entries with [] -> Pass | _ -> hit_slow p ctx site

let hit_unit ?ctx site =
  match hit ?ctx site with
  | Pass -> ()
  | Fire_trap | Fire_fuel -> raise (Injected (injected_msg ?ctx site.s_name))

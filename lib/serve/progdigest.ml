(* Content addressing of analysis inputs.

   A verdict cache key must change whenever anything that can change the
   loop's verdict changes, and should change for as little else as
   possible — the narrower the digest, the more of an edited program's
   loops survive in cache.  The unit we digest is the *lowered IR* (the
   printer's canonical text): source formatting, comments and variable
   renames that lower identically hash identically, while anything that
   moves an instruction does not.

   Per-function granularity: a function's digest covers its own IR plus
   the IR of every function reachable from it through calls (its call
   closure) plus the global table — everything a loop inside it can
   execute or touch.  Editing one function therefore invalidates its own
   loops and the loops of its (transitive) callers, and nothing else.

   This is deliberately finer than sound: a loop's dynamic verdict is
   established by running the whole program, so an edit *outside* the
   loop's call closure can still change the invocation context the loop
   is tested under (different heap shape at loop entry).  That is the
   price of incrementality, and the same class of approximation as the
   paper's input sampling (§IV-E: verdicts hold for the executions
   observed).  Two mitigations: the run-spec digest pins the input
   stream, and an entry whose outcome used whole-program verification
   is keyed by the whole-program digest as well, so a change to *any*
   function gives it a key of its own and the earlier version keeps
   its entry (see Vcache). *)

open Dca_ir

type t = {
  pd_program : string;  (** hex digest of the whole lowered program *)
  pd_funcs : (string * string) list;  (** function name → hex closure digest *)
}

let hex s = Digest.to_hex (Digest.string s)

(* Call targets that are IR functions (builtins like [reads]/[printi]
   have fixed semantics and are not digested). *)
let callees prog f =
  let names = Hashtbl.create 8 in
  Array.iter
    (fun blk ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Call (_, name, _) when Ir.find_func prog name <> None -> Hashtbl.replace names name ()
          | _ -> ())
        blk.Ir.instrs)
    f.Ir.fblocks;
  Hashtbl.fold (fun n () acc -> n :: acc) names []

let globals_digest prog =
  let buf = Buffer.create 256 in
  Array.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "global @%s slot=%d agg=%b size=%d kinds=%s init=%s\n" g.Ir.g_var.Ir.vname
           g.Ir.g_var.Ir.vslot g.Ir.g_aggregate g.Ir.g_size
           (String.concat ","
              (Array.to_list
                 (Array.map
                    (function Layout.KInt -> "i" | Layout.KFloat -> "f" | Layout.KPtr -> "p")
                    g.Ir.g_kinds)))
           (match g.Ir.g_init with
           | Some op -> Ir_printer.operand_to_string op
           | None -> "-")))
    prog.Ir.p_globals;
  hex (Buffer.contents buf)

let of_program prog =
  let globals = globals_digest prog in
  let local = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace local f.Ir.fname (hex (Ir_printer.func_to_string f)))
    prog.Ir.p_funcs;
  (* reachable-set closure: cycles (recursion) are harmless because we
     digest the *set* of reachable locals, not a recursive hash *)
  let reachable_of f0 =
    let seen = Hashtbl.create 8 in
    let rec visit name =
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        match Ir.find_func prog name with
        | Some f -> List.iter visit (callees prog f)
        | None -> ()
      end
    in
    visit f0.Ir.fname;
    Hashtbl.fold (fun n () acc -> n :: acc) seen [] |> List.sort compare
  in
  let closure f =
    let parts =
      List.map
        (fun name ->
          name ^ "=" ^ match Hashtbl.find_opt local name with Some d -> d | None -> "?")
        (reachable_of f)
    in
    hex (String.concat ";" parts ^ "|globals=" ^ globals)
  in
  let pd_funcs = List.map (fun f -> (f.Ir.fname, closure f)) prog.Ir.p_funcs in
  let pd_program =
    hex
      (String.concat ";" (List.map (fun (n, d) -> n ^ "=" ^ d) pd_funcs)
      ^ "|globals=" ^ globals)
  in
  { pd_program; pd_funcs }

let func_digest t name = List.assoc_opt name t.pd_funcs
let program_digest t = t.pd_program

(* ------------------------------------------------------------------ *)
(* Run-spec and configuration digests                                  *)
(* ------------------------------------------------------------------ *)

open Dca_core

let opt_int = function None -> "-" | Some n -> string_of_int n

let spec_digest (s : Commutativity.run_spec) =
  hex
    (Printf.sprintf "input=%s fuel=%d deadline=%s heap=%s"
       (String.concat "," (List.map string_of_int s.Commutativity.rs_input))
       s.Commutativity.rs_fuel
       (opt_int s.Commutativity.rs_deadline_ns)
       (opt_int s.Commutativity.rs_heap_words))

(* The static flag is digested as the *prover version* when enabled: a
   cached verdict proved under weaker obligations must never satisfy a
   binary whose prover changed, and static/dynamic runs of the same
   program must not share entries. *)
let config_digest ~hierarchical ?(static = true) (c : Commutativity.config) =
  hex
    (Printf.sprintf "schedules=%s eps=%h escalate=%b inv=%d promote=%d hier=%b static=%s"
       (String.concat "," (List.map Schedule.to_string c.Commutativity.cc_schedules))
       c.Commutativity.cc_eps c.Commutativity.cc_escalate c.Commutativity.cc_max_invocations
       Commutativity.promote_rounds hierarchical
       (if static then string_of_int Dca_analysis.Staticproof.version else "off"))

let loop_key t ~config_digest ~spec_digest ~func ~loop_id =
  let fd = match func_digest t func with Some d -> d | None -> "?" in
  Digest.to_hex
    (Digest.string (Printf.sprintf "dcav1|%s|%s|%s|%s" fd loop_id spec_digest config_digest))

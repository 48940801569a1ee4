open Dca_frontend
open Dca_ir

type summary = {
  s_reads_memory : bool;
  s_writes_memory : bool;
  s_io : bool;
  s_calls_unknown : bool;
}

type t = (string, summary) Hashtbl.t

let bottom = { s_reads_memory = false; s_writes_memory = false; s_io = false; s_calls_unknown = false }
let top = { s_reads_memory = true; s_writes_memory = true; s_io = true; s_calls_unknown = true }

let join a b =
  {
    s_reads_memory = a.s_reads_memory || b.s_reads_memory;
    s_writes_memory = a.s_writes_memory || b.s_writes_memory;
    s_io = a.s_io || b.s_io;
    s_calls_unknown = a.s_calls_unknown || b.s_calls_unknown;
  }

let builtin_summary (b : Ast.builtin) =
  if b.bi_io then { s_reads_memory = true; s_writes_memory = true; s_io = true; s_calls_unknown = false }
  else if b.bi_pure then bottom
  else
    (* drand/dseed: thread the generator state, modelled as memory. *)
    { s_reads_memory = true; s_writes_memory = true; s_io = false; s_calls_unknown = false }

(* Direct (call-free) effects of one instruction. *)
let direct_effects = function
  | Ir.Load _ | Ir.Gload _ -> { bottom with s_reads_memory = true }
  | Ir.Store _ | Ir.Gstore _ | Ir.Alloc _ -> { bottom with s_writes_memory = true }
  | Ir.Print _ | Ir.Prints _ -> { bottom with s_io = true }
  | Ir.Call _ -> bottom (* handled via the call graph *)
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ | Ir.Gep _ | Ir.Gaddr _ -> bottom

let analyze (p : Ir.program) : t =
  let tbl : t = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace tbl b.Ast.bi_name (builtin_summary b)) Ast.builtins;
  List.iter (fun f -> Hashtbl.replace tbl f.Ir.fname bottom) p.Ir.p_funcs;
  let lookup name = match Hashtbl.find_opt tbl name with Some s -> s | None -> top in
  let summarize f =
    Array.fold_left
      (fun acc blk ->
        List.fold_left
          (fun acc i ->
            let acc = join acc (direct_effects i.Ir.idesc) in
            match i.Ir.idesc with
            | Ir.Call (_, name, _) ->
                if Hashtbl.mem tbl name || Ast.find_builtin name <> None then join acc (lookup name)
                else join acc top
            | _ -> acc)
          acc blk.Ir.instrs)
      bottom f.Ir.fblocks
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let s = summarize f in
        if s <> lookup f.Ir.fname then begin
          Hashtbl.replace tbl f.Ir.fname s;
          changed := true
        end)
      p.Ir.p_funcs
  done;
  tbl

let summary t name = match Hashtbl.find_opt t name with Some s -> s | None -> top
let pure t name = let s = summary t name in (not s.s_writes_memory) && not s.s_io
let io_free t name = not (summary t name).s_io

let instr_does_io t = function
  | Ir.Print _ | Ir.Prints _ -> true
  | Ir.Call (_, name, _) -> not (io_free t name)
  | _ -> false

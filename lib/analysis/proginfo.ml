open Dca_ir
module Telemetry = Dca_support.Telemetry

(* The deferred analyses may be first read from several domains at once,
   and OCaml 5 raises [Lazy.Undefined] on a concurrent [Lazy.force], so
   every force runs under the program's one mutex.  No analysis reads
   another through this module, so no force runs inside another and the
   lock is never taken twice. *)

type facts = { live : Liveness.t; affine : Affine.t; pdg : Pdg.t }
type deferred = { lock : Mutex.t; facts : facts Lazy.t }

type func_info = {
  fi_func : Ir.func;
  fi_cfg : Cfg.t;
  fi_forest : Loops.forest;
  fi_deferred : deferred;
}

type t = {
  prog : Ir.program;
  infos : (string, func_info) Hashtbl.t;
  order : string list;
  lock : Mutex.t;
  pur : Purity.t Lazy.t;
}

let c_analysed = Telemetry.counter ~kind:Telemetry.Diag "analysis.functions"

let analyze prog =
  let lock = Mutex.create () in
  let infos = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let cfg = Cfg.of_func f in
      let forest = Loops.analyze cfg in
      let facts =
        lazy
          (Telemetry.incr c_analysed;
           { live = Liveness.analyze cfg; affine = Affine.analyze cfg forest; pdg = Pdg.build cfg })
      in
      Hashtbl.replace infos f.Ir.fname
        { fi_func = f; fi_cfg = cfg; fi_forest = forest; fi_deferred = { lock; facts } })
    prog.Ir.p_funcs;
  {
    prog;
    infos;
    order = List.map (fun f -> f.Ir.fname) prog.Ir.p_funcs;
    lock;
    pur = lazy (Purity.analyze prog);
  }

let force lock l = Mutex.protect lock (fun () -> Lazy.force l)
let facts fi = force fi.fi_deferred.lock fi.fi_deferred.facts
let live fi = (facts fi).live
let affine fi = (facts fi).affine
let pdg fi = (facts fi).pdg
let program t = t.prog
let purity t = force t.lock t.pur

let func_info t name =
  match Hashtbl.find_opt t.infos name with
  | Some fi -> fi
  | None -> invalid_arg (Printf.sprintf "Proginfo.func_info: unknown function '%s'" name)

let funcs t = List.map (func_info t) t.order

let all_loops t =
  List.concat_map (fun fi -> List.map (fun l -> (fi, l)) (Loops.loops fi.fi_forest)) (funcs t)

let loop_by_id t id =
  List.find_opt (fun (_, l) -> l.Loops.l_id = id) (all_loops t)

let loop_label t l =
  ignore t;
  Printf.sprintf "%s:%d(d%d)" l.Loops.l_func l.Loops.l_loc.Dca_frontend.Loc.line l.Loops.l_depth

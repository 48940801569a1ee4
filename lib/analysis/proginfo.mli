(** Per-program analysis cache: CFGs, loop forests, liveness, affine
    contexts, PDGs and purity summaries for every function, each computed
    at most once and shared by DCA, the baselines and the profilers.

    {!analyze} computes each function's CFG and loop forest at once:
    every caller needs them to enumerate, label and key the loops.  A
    function's liveness, affine facts and PDG are computed together on
    the first read of any of them ({!live}, {!affine}, {!pdg}), and the
    program's purity summaries on the first {!purity}, so a serve
    request whose loops the verdict cache resolves in full computes none
    of them.  Each first computation of a function's facts ticks the
    [analysis.functions] diagnostic counter.

    Domains: the accessors may be called from several domains at once
    (a session's pool finishes loops in parallel); every read forces its
    value under one mutex per {!t}, so a value is computed once and
    every reader gets the same one. *)

type deferred
(** A function's liveness, affine facts and PDG, until first read. *)

type func_info = {
  fi_func : Dca_ir.Ir.func;
  fi_cfg : Dca_ir.Cfg.t;
  fi_forest : Loops.forest;
  fi_deferred : deferred;
}

type t

val analyze : Dca_ir.Ir.program -> t

val live : func_info -> Liveness.t
val affine : func_info -> Affine.t
val pdg : func_info -> Pdg.t

val program : t -> Dca_ir.Ir.program
val purity : t -> Purity.t
val func_info : t -> string -> func_info
(** Raises [Invalid_argument] for unknown functions. *)

val funcs : t -> func_info list

val all_loops : t -> (func_info * Loops.loop) list
(** Every loop of the program, grouped by function in program order,
    outermost first within a function. *)

val loop_by_id : t -> string -> (func_info * Loops.loop) option

val loop_label : t -> Loops.loop -> string
(** Human-readable "func:line(depth d)" label for tables. *)

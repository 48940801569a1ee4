(** Source-to-source output of a parallelization plan: the original MiniC
    text with an OpenMP-style pragma comment inserted above every planned
    loop — the reproduction's stand-in for the paper's OpenMP code
    generation (§IV-C), usable as a diffable artifact for the user to
    review (§IV-D). *)

val annotate_source :
  Dca_analysis.Proginfo.t -> source:string -> Plan.t -> string
(** Insert one pragma line (matching the target line's indentation) above
    the header line of each planned loop.  Loops whose source line cannot
    be recovered are listed in a trailing comment instead of silently
    dropped. *)

val export_c : Dca_analysis.Proginfo.t -> file:string -> source:string -> Plan.t -> string
(** The program as compilable C99 ({!Dca_frontend.C_export}) with a real
    OpenMP pragma above every planned loop: its {!pragma}, whose
    [private] clause leaves out the names declared in the loop's body
    (block-scoped in C, so private already).  [info] must be the
    analysis of [source]. *)

val pragma :
  privates:string list -> reductions:(string * Dca_analysis.Scalars.reduction_op) list -> string
(** The one OpenMP pragma renderer: [#pragma omp parallel for
    schedule(static)] with a [private] clause over [privates] (if any)
    and one [reduction] clause per reduction, in list order.  Every
    front end that shows a pragma — [advise], [annotate], [export-c],
    the plan listing — adds only its own prefix or suffix. *)

val pragma_line : Plan.loop_plan -> string
(** The plan loop's pragma as a MiniC comment line, as {!annotate_source}
    inserts it. *)

val plan_to_string : Plan.t -> string
(** One line per planned loop: its pragma, then [  // ] and the loop's
    label. *)

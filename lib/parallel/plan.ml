(** Parallelization plans: the information an OpenMP pragma would carry
    (paper §IV-C).  Plans are data; the {!Simulator} executes them on the
    machine model. *)

open Dca_analysis

type loop_plan = {
  lp_loop_id : string;
  lp_label : string;
  lp_private : string list;  (** privatized scalars (by name, for reports) *)
  lp_reductions : (string * Scalars.reduction_op) list;
  lp_fused_group : int option;
      (** loops sharing a group id are launched as one parallel section
          (whole-program expert parallelization, Fig. 7) *)
}

type t = { plan_loops : loop_plan list }

let empty = { plan_loops = [] }

let loop_ids plan = List.map (fun lp -> lp.lp_loop_id) plan.plan_loops

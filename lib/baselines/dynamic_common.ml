(** Shared dependence-filtering logic of the two dynamic baselines.

    A profiled loop is reported parallelizable when every observed
    cross-iteration RAW dependence is attributable to a construct the tool
    knows how to parallelize around: the loop's induction variable(s),
    recognized scalar reductions, or recognized memory-reduction
    read-modify-write pairs.  WAR and WAW dependences are assumed
    removable by privatization (Tournavitis et al.), so only RAWs count. *)

open Dca_analysis
open Dca_interp
open Dca_profiling

type filters = {
  fl_scalar_ok : int -> bool;  (** variable id carries a tolerated scalar dependence *)
  fl_rmw_pairs : (int * int) list;  (** (load iid, store iid) reduction pairs *)
}

let raw_blockers (profile : Depprof.profile) (loop : Loops.loop) (filters : filters) =
  match Depprof.loop_profile profile loop.Loops.l_id with
  | None -> Error "loop not executed by the workload"
  | Some _ ->
      let blocking =
        List.filter
          (fun (d : Depprof.dep) ->
            match d.Depprof.d_kind with
            | Depprof.War | Depprof.Waw -> false
            | Depprof.Raw -> (
                match d.Depprof.d_loc with
                | Events.Lreg vid -> not (filters.fl_scalar_ok vid)
                | Events.Lrng -> true
                | Events.Lheap _ | Events.Lglob _ ->
                    (* RAW carries (write = the store, read = the load) of
                       a recognized read-modify-write reduction pair *)
                    not
                      (List.mem
                         (d.Depprof.d_read_iid, d.Depprof.d_write_iid)
                         filters.fl_rmw_pairs)))
          (Depprof.deps_of profile loop.Loops.l_id)
      in
      Ok blocking

let classify_with profile filters_of info fi (loop : Loops.loop) : Tool.verdict =
  if Static_common.loop_does_io info fi loop then Tool.Not_parallel "I/O inside loop"
  else
    match raw_blockers profile loop (filters_of fi loop) with
    | Error why -> Tool.Not_parallel why
    | Ok [] -> Tool.Parallel
    | Ok ((d : Depprof.dep) :: _) ->
        Tool.Not_parallel
          (Printf.sprintf "cross-iteration RAW on %s (i%d -> i%d)"
             (Events.loc_to_string d.Depprof.d_loc) d.Depprof.d_write_iid d.Depprof.d_read_iid)

(** Program dependence graph of a function, at instruction granularity.

    Nodes are instructions plus one pseudo-node per block terminator.  Two
    kinds of dependence edges are recorded, both queried {e backwards}
    (from a node to the nodes it depends on):

    - {e data}: flow-insensitive def→use over frame variables (a use
      depends on every def of the variable in the function — a sound
      over-approximation that can only enlarge the iterator slice);
    - {e control}: a node depends on the terminator of every block its
      block is control-dependent on (computed from the post-dominator
      tree in the classic Ferrante–Ottenstein–Warren fashion).

    The generalized iterator recognition of the paper (§IV-A1, after
    Manilov et al. CC'18) is the backward closure of the loop's exiting
    terminators inside the loop; see {!Iterator_rec} in [dca_core]. *)

type node = Instr of int  (** instruction id *) | Term of int  (** block id *)

val compare_node : node -> node -> int

module Nodeset : Set.S with type elt = node

type t

val build : Dca_ir.Cfg.t -> t

val deps_of : t -> node -> node list
(** Data and control dependencies of a node. *)

val node_block : t -> node -> int
(** Block the node belongs to. *)

val instr : t -> int -> Dca_ir.Ir.instr
(** Instruction record by id (must belong to this function). *)

val defs_of_var : t -> int -> node list
(** Nodes (always [Instr]) defining the given variable id. *)

val backward_closure : t -> within:(node -> bool) -> node list -> Nodeset.t
(** Transitive dependencies of the seed nodes, restricted to nodes
    satisfying [within].  The seeds are included (when [within] holds). *)

val control_parents : t -> int -> int list
(** Blocks whose terminator the given block is control-dependent on. *)

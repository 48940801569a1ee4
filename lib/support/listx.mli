(** Small extensions over [Stdlib.List] and [Stdlib.Array] used throughout
    the analyses. *)

val fold_lefti : ('a -> int -> 'b -> 'a) -> 'a -> 'b list -> 'a
(** Left fold carrying the element index. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val index_of : ('a -> bool) -> 'a list -> int option
(** Index of the first element satisfying the predicate. *)

val dedup_keep_order : ('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove duplicates (by the given equality), keeping first occurrences in
    order.  Quadratic; used on small lists only. *)

val sum_int : int list -> int
val max_float : float list -> float
(** Maximum of a non-empty list; raises [Invalid_argument] on []. *)

val group_by : ('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Group elements by key (polymorphic equality on keys), keys in first-seen
    order, members in original order. *)

val topological_sort : ('a -> 'a list) -> 'a list -> 'a list option
(** [topological_sort succs nodes] orders [nodes] such that every node
    precedes its successors; [None] if the graph restricted to [nodes] has a
    cycle.  Uses polymorphic equality/hashing on nodes. *)

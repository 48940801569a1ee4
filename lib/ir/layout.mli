open Dca_frontend
(** Memory layout of MiniC types over the cell-addressed heap.

    Scalars and pointers occupy one cell each; a struct value occupies the
    concatenation of its fields; an array occupies element-size × product of
    its dimensions, row-major. *)

type t

type cellkind = KInt | KFloat | KPtr

val create : Ast.struct_def list -> t
(** Precompute layouts for the program's struct definitions.  Raises
    [Invalid_argument] on unknown or value-recursive structs. *)

val size : t -> Ast.ty -> int
(** Size in cells.  [size t Tvoid = 0]. *)

val field_offset : t -> string -> int -> int
(** [field_offset t sname i] is the cell offset of field [i] of struct
    [sname]. *)

val field_type : t -> string -> int -> Ast.ty

val cell_kinds : t -> Ast.ty -> cellkind array
(** Kinds of the cells of one element of the type, used to zero-initialize
    fresh blocks with correctly-typed values. *)

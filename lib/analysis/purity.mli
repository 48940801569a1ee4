(** Side-effect summaries for functions: a call-graph fixpoint that
    classifies each function (and builtin) by whether it may read or write
    memory (heap cells, global scalars, the [drand] generator state) and
    whether it may perform I/O.

    DCA's candidate selection (paper §IV-E) excludes loops that perform
    I/O; the static baselines use [pure] to decide whether a call inside a
    loop is analyzable (our stand-in for ICC's aggressive inlining of pure
    functions, §V-C1). *)

type summary = {
  s_reads_memory : bool;
  s_writes_memory : bool;
  s_io : bool;
  s_calls_unknown : bool;  (** calls a function with no definition *)
}

type t

val analyze : Dca_ir.Ir.program -> t

val summary : t -> string -> summary
(** Summary of a defined function or builtin; unknown names are maximally
    impure. *)

val pure : t -> string -> bool
(** Neither writes memory nor performs I/O (may read memory). *)

val io_free : t -> string -> bool

val instr_does_io : t -> Dca_ir.Ir.idesc -> bool
(** Does this instruction perform I/O, directly or through a call? *)

(** The IR evaluator.

    Besides ordinary whole-program execution ({!run_main}), the evaluator
    exposes the primitives DCA's dynamic stage is built from:

    - {!frame}s are first-class, and {!exec_upto} runs a frame's blocks
      from a given block until control is about to enter a block matching
      a predicate — with an optional {!step_control} that (a) filters which
      instructions execute (slice-only or payload-only execution of a loop
      body) and (b) overrides conditional branch directions (replaying the
      recorded control path of the iterator, paper §IV-B);
    - {!add_interceptor} installs a hook that fires when normal execution
      is about to enter a given block (a loop header): the hook takes over,
      runs the loop under the DCA harness, and returns the block where
      execution must resume — this is how one program run tests every
      candidate loop, and how whole-program verification runs a program
      "with loop L permuted".  {!without_interceptors} silences every
      hook for the extent of one loop's test.

    Executed instructions are counted in {!steps}; a fuel bound aborts
    runaway executions ({!Out_of_fuel}).  {!set_limits} moves the fuel
    bound and the deadline while a context runs, so one execution can
    charge each tested loop only its own share of the work. *)

exception Trap of string
exception Out_of_fuel

exception Deadline_exceeded
(** The context's wall-clock deadline ([?deadline_ns] at {!create})
    elapsed.  Checked every few thousand steps on the fuel path, so the
    raise lands within one guard interval of the deadline. *)

exception Heap_exhausted
(** The major heap grew past the context's budget ([?heap_words] at
    {!create}).  The measurement is [Gc.quick_stat].heap_words — the
    process-wide major heap — so the budget bounds growth attributable
    to the run plus whatever other domains allocate meanwhile; it is a
    containment guard, not an accounting tool. *)

type ctx

type dblock
(** A basic block compiled when the program's first context is created:
    one OCaml closure per instruction, with its operands resolved, in a
    plain form that emits nothing and an observed form that emits the
    instruction's sink events, plus a memory form for the memory and call
    instructions that emits only their memory events (every other
    instruction's memory form is its plain one).  A block picks one of
    the three from the context's sink kind when it starts ({!set_sink}),
    so a sink installed or removed while a block runs — from a sink
    callback, or by an interceptor handler that does not restore it —
    takes effect from the next block on.  Compiled code is memoized per
    program and shared by every context and every {!fork}, on any
    domain. *)

type frame = { ffunc : Dca_ir.Ir.func; fcode : dblock array; regs : Value.t array }
(** [fcode] is the compiled body of [ffunc]; build frames with
    {!copy_frame} (or receive them from an interceptor) rather than by
    hand. *)

val guard_interval : int
(** Step period of the resource-guard check: the deadline and heap
    budgets are only consulted every [guard_interval] executed
    instructions (one integer compare on the fast path), so a guard can
    overshoot by at most one interval. *)

val default_fuel : int
(** 200 million instructions: the fuel bound of every evaluator and run
    spec that does not set its own. *)

val hit_fault : ?ctx:string -> Dca_support.Faultpoint.site -> unit
(** Pass through a fault point of guest execution, mapping what fires
    onto the evaluator's own exceptions: a [trap] action raises {!Trap}
    with the injected-fault message, a [fuel] action {!Out_of_fuel}.  A
    [raise] action raises {!Dca_support.Faultpoint.Injected} and a
    [delay] waits, as {!Dca_support.Faultpoint.hit} does.  Every fault
    point whose injected failure should degrade like a guest fault goes
    through here: the periodic step guard, the dynamic stage's golden
    runs and replays, and the driver's per-loop containment. *)

val create :
  ?fuel:int -> ?deadline_ns:int -> ?heap_words:int -> ?checkpoint:Store.checkpoint_mode ->
  ?input:int list -> Dca_ir.Ir.program -> ctx
(** Default fuel: {!default_fuel}.  [deadline_ns] is a relative
    wall-clock budget converted to an absolute monotonic deadline at
    creation; [heap_words] bounds major-heap growth over the heap size
    at creation.  Both are inherited by {!fork} (absolute, so every
    replica of an invocation shares the same deadline) and default to
    unlimited.  [checkpoint] is the store's checkpointing strategy
    ({!Store.create}; default [Journal]), also inherited by {!fork}. *)

val fork : ?steps:int -> ctx -> ctx
(** A private replica of the context at its current state: the store is
    copied with {!Store.copy} (copy-on-write in [Journal] mode, eager in
    [Deep] mode), the (read-only) program and function table are shared,
    and the replica starts with no sink and no interceptors.  Every
    permuted replay of DCA's dynamic stage runs on a replica of its
    invocation's state after the iterator pass, at every pool width —
    replicas on different domains never share mutable state.  The fuel
    bound and the deadline are inherited, so the replica has the
    parent's headroom at the fork point.  The step counter starts at
    [steps] (default: the parent's), and the replica's guard checks
    count from it. *)

val store : ctx -> Store.t

val steps : ctx -> int
(** Instructions executed so far, each counted before its closure runs.
    A block with no call to a user function that ends below the fuel
    bound and before the next guard point counts all its instructions
    when it starts, then runs them: read at a control event, from an
    interceptor or a callee, or after a run, the count is the same as
    counting one by one, and a raise inside such a block leaves it at
    the raising instruction.  Only a sink callback of an instruction
    inside such a block can see the block's later instructions already
    counted. *)

val set_limits : ctx -> fuel:int -> deadline:int -> unit
(** Replace the fuel bound — {!Out_of_fuel} is raised by the instruction
    that takes {!steps} past [fuel] — and the deadline, an absolute
    [Telemetry.now_ns] value ([max_int]: none).  Both start as
    {!create} sets them; the heap budget cannot be moved. *)

val charge : ctx -> int -> unit
(** [charge ctx n] adds [n] instructions executed elsewhere to {!steps},
    and raises {!Out_of_fuel} if that passes the fuel bound, leaving
    {!steps} one past the bound, where executing the instructions on
    [ctx] would have stopped.  DCA's dynamic stage charges a loop's
    context the instructions of its {!fork}ed replicas, and charges each
    replica the iterator pass it shares with the other schedules of its
    invocation.  No guard is checked: if the charge passes the next
    guard point, the next instruction executed checks the guards. *)

type sink_kind =
  | Control
      (** [on_block], [on_call] and [on_return] only; every block runs its
          plain closures, so a run costs what a run without a sink costs
          plus one callback per control event *)
  | Memory
      (** the control events, and of the instruction events only those of
          memory: [on_exec] for loads, stores, global loads and stores, and
          calls, and [on_read]/[on_write] for heap, global and generator
          locations.  No register event fires — no operand read, no
          destination write, no terminator read, no call-result write. *)
  | All  (** every event *)

val set_sink : ?kind:sink_kind -> ctx -> Events.sink option -> unit
(** Attach a sink ([None]: detach) of the given kind (default [All]).
    Every kind receives the control events exactly as [All] does, in the
    same order relative to the events it keeps; a run's outputs, steps and
    traps do not depend on the kind.  {!steps} is the clock a [Control]
    sink reads: every executed instruction is one step. *)

val run_main : ctx -> unit
val outputs : ctx -> string list

val copy_frame : frame -> frame
(** Same function and compiled code, private copy of the register file. *)

type step_control = {
  sc_filter : Dca_ir.Ir.instr -> bool;
      (** execute only instructions satisfying this.  The filter must be a
          pure function of the instruction: a context asks it about a
          block's instructions the first time it enters the block under
          that filter and keeps the answer, keyed on the filter closure's
          physical identity — so build a filter once and reuse it, rather
          than a new closure for every {!exec_upto}. *)
  sc_override : int -> int option;
      (** forced successor for the conditional terminator of the given
          block ([None] = evaluate the condition normally) *)
}

type stop_reason =
  | Stopped_at of int  (** about to enter this block *)
  | Returned of Value.t option  (** a [Ret] executed inside the region *)

val exec_upto : ctx -> frame -> start:int -> stop:(int -> bool) -> control:step_control option -> stop_reason
(** Execute blocks beginning with [start] (which always executes, even if
    [stop start] holds) until about to transfer to a block [b] with
    [stop b].  Calls made by executed instructions run normally (filters
    apply only to the frame's own blocks). *)

val add_interceptor : ctx -> fname:string -> header:int -> (ctx -> frame -> int) -> unit
(** The handler receives the frame about to enter [header] and must return
    the block id where execution continues (typically the loop's unique
    exit target).  The handler is not re-entered while it is active. *)

val without_interceptors : ctx -> (unit -> 'a) -> 'a
(** [without_interceptors ctx f] runs [f] with every interceptor of [ctx]
    silenced, and reinstates them when [f] returns or raises. *)

val globals_of : ctx -> (Dca_ir.Ir.gdef * Value.t) list
(** Current values of the global table, in slot order. *)

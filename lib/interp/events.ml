(** Instrumentation interface of the interpreter.

    A sink receives the dynamic event stream: executed instructions,
    reads/writes classified by location, control transfers between blocks,
    and call boundaries.  It is attached with one of three kinds
    ([Eval.set_sink ~kind]), and every kind receives [on_block], [on_call]
    and [on_return]:

    - [All] receives every event: the profiler's dependence pass;
    - [Memory] receives, of the instruction events, only [on_exec] of
      loads, stores, global loads and stores and calls, and [on_read] and
      [on_write] of heap, global and generator locations — no register
      event: DCA's golden recording;
    - [Control] receives no instruction event: the profiler's cost pass.

    Running without a sink costs nothing per event, and neither does an
    instruction a sink's kind leaves out: a block runs code compiled
    without those event sites, chosen when the block starts. *)

type loc =
  | Lheap of int * int  (** heap block, cell offset *)
  | Lglob of int  (** global-table slot (global scalars) *)
  | Lreg of int  (** frame variable, by variable id *)
  | Lrng  (** the [drand] generator state *)

type sink = {
  on_exec : Dca_ir.Ir.instr -> unit;
  on_read : loc -> int -> unit;
      (** location read by the instruction with the given id; [-1] when the
          read happens in a block terminator (condition evaluation) *)
  on_write : loc -> int -> unit;
  on_block : fname:string -> src:int -> dst:int -> unit;
      (** control transfer inside a function; [src = -1] on function entry *)
  on_call : string -> unit;
  on_return : string -> unit;
}

let null_sink =
  {
    on_exec = (fun _ -> ());
    on_read = (fun _ _ -> ());
    on_write = (fun _ _ -> ());
    on_block = (fun ~fname:_ ~src:_ ~dst:_ -> ());
    on_call = (fun _ -> ());
    on_return = (fun _ -> ());
  }

let loc_to_string = function
  | Lheap (b, o) -> Printf.sprintf "heap[%d:%d]" b o
  | Lglob s -> Printf.sprintf "glob[%d]" s
  | Lreg v -> Printf.sprintf "reg[%d]" v
  | Lrng -> "rng"

let compare_loc (a : loc) (b : loc) = compare a b

(** Instrumentation interface of the interpreter.

    A sink receives the dynamic event stream: executed instructions,
    reads/writes classified by location, control transfers between blocks,
    and call boundaries.  DCA's golden recording and the profiler's
    dependence pass are full sinks.  A sink attached as control-only
    ([Eval.set_sink ~control_only:true]) receives only [on_block],
    [on_call] and [on_return]: the profiler's cost pass is one.  Running
    without a sink costs nothing per event, and neither does an
    instruction under a control-only sink: a block runs code compiled
    without event sites unless the context has a full sink when the block
    starts. *)

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

(* Reference implementation of Dca_interp.Eval kept for differential
   testing: the pre-decoded evaluator, which matches on every decoded
   instruction ([exec_instr]) and checks the sink and the step-control
   filter at every executed instruction.  test_eval checks that the
   closure-compiled evaluator reproduces this module's outputs, step
   counts, traps, fuel exhaustion, sink event streams and filtered
   [exec_upto] runs.  Apart from this comment and the [open Dca_interp]
   below, the file is the evaluator's source verbatim. *)

open Dca_interp

open Dca_ir
open Value

exception Trap of string
exception Out_of_fuel
exception Deadline_exceeded
exception Heap_exhausted

(* ------------------------------------------------------------------ *)
(* Pre-decoded code                                                    *)
(* ------------------------------------------------------------------ *)

(* The evaluator does not interpret [Ir.instr] lists directly: at context
   creation every function is decoded once into arrays of pre-resolved
   instructions.  Constant operands become ready-made values (no [VInt]
   allocation per use), [Alloc] types become pre-computed cell-kind
   patterns, call targets are classified (builtin id / user function), and
   instruction lists become arrays.  Every decoded instruction keeps the
   original [Ir.instr] for sinks, filters and diagnostics, so event
   streams are identical to the direct interpreter's. *)

type dop = Dconst of Value.t | Dvar of Ir.var

type builtin =
  | Bsqrt
  | Bfabs
  | Bsin
  | Bcos
  | Bexp
  | Blog
  | Bfloor
  | Bpow
  | Bfmod
  | Bfmin
  | Bfmax
  | Bimin
  | Bimax
  | Biabs
  | Bitof
  | Bftoi
  | Bhrand
  | Bdrand
  | Bdseed
  | Breads

let builtin_of_name = function
  | "sqrt" -> Some Bsqrt
  | "fabs" -> Some Bfabs
  | "sin" -> Some Bsin
  | "cos" -> Some Bcos
  | "exp" -> Some Bexp
  | "log" -> Some Blog
  | "floor" -> Some Bfloor
  | "pow" -> Some Bpow
  | "fmod" -> Some Bfmod
  | "fmin" -> Some Bfmin
  | "fmax" -> Some Bfmax
  | "imin" -> Some Bimin
  | "imax" -> Some Bimax
  | "iabs" -> Some Biabs
  | "itof" -> Some Bitof
  | "ftoi" -> Some Bftoi
  | "hrand" -> Some Bhrand
  | "drand" -> Some Bdrand
  | "dseed" -> Some Bdseed
  | "reads" -> Some Breads
  | _ -> None

type ddesc =
  | DBin of Ir.var * Ir.binop * dop * dop
  | DUn of Ir.var * Ir.unop * dop
  | DMov of Ir.var * dop
  | DLoad of Ir.var * dop
  | DStore of dop * dop
  | DGep of Ir.var * dop * dop * int
  | DGload of Ir.var * Ir.var
  | DGstore of Ir.var * dop
  | DGaddr of Ir.var * Ir.var
  | DAlloc of Ir.var * Layout.cellkind array * dop
  | DCall of Ir.var option * string * builtin option * dop array
  | DPrint of dop
  | DPrints of string

type dinstr = { di : Ir.instr;  (** the source instruction, for sinks and filters *) dd : ddesc }

type dterm = TBr of int | TCbr of dop * int * int | TRet of dop option

type dblock = { db_instrs : dinstr array; db_term : dterm }

type dfunc = { df_func : Ir.func; df_blocks : dblock array }

type frame = { ffunc : Ir.func; fcode : dblock array; regs : Value.t array }

type interceptor = { it_fname : string; it_header : int; mutable it_active : bool; it_handler : handler }
and handler = Handler of (ctx -> frame -> int)

and ctx = {
  prog : Ir.program;
  st : Store.t;
  funcs : (string, dfunc) Hashtbl.t;
  mutable sink : Events.sink option;
  mutable nsteps : int;
  mutable fuel : int;  (** absolute step bound *)
  mutable deadline : int;  (** absolute [Telemetry.now_ns] bound; [max_int] = none *)
  heap_limit : int;  (** absolute major-heap words ceiling; [max_int] = none *)
  mutable next_guard : int;  (** step count of the next periodic guard check *)
  mutable interceptors : interceptor list;
}

type step_control = { sc_filter : Ir.instr -> bool; sc_override : int -> int option }

type stop_reason = Stopped_at of int | Returned of Value.t option

let default_fuel = 200_000_000

(* Resource guards ride the fuel path but only run every [guard_interval]
   steps: the per-instruction cost is one integer compare, the clock and
   GC reads are amortized away.  The interval is fixed (and [nsteps] is
   deterministic), so the [eval.step] fault point fires at a
   deterministic step count. *)
let guard_interval = 4096
let fp_step = Dca_support.Faultpoint.site "eval.step"

let decode_op = function
  | Ir.Ovar v -> Dvar v
  | Ir.Oint n -> Dconst (VInt n)
  | Ir.Ofloat f -> Dconst (VFloat f)
  | Ir.Onull -> Dconst VNull

let decode_instr layout (i : Ir.instr) =
  let dd =
    match i.Ir.idesc with
    | Ir.Bin (d, op, a, b) -> DBin (d, op, decode_op a, decode_op b)
    | Ir.Un (d, op, a) -> DUn (d, op, decode_op a)
    | Ir.Mov (d, a) -> DMov (d, decode_op a)
    | Ir.Load (d, p) -> DLoad (d, decode_op p)
    | Ir.Store (p, src) -> DStore (decode_op p, decode_op src)
    | Ir.Gep (d, base, idx, scale) -> DGep (d, decode_op base, decode_op idx, scale)
    | Ir.Gload (d, g) -> DGload (d, g)
    | Ir.Gstore (g, src) -> DGstore (g, decode_op src)
    | Ir.Gaddr (d, g) -> DGaddr (d, g)
    | Ir.Alloc (d, ty, count) -> DAlloc (d, Layout.cell_kinds layout ty, decode_op count)
    | Ir.Call (dst, name, args) ->
        DCall (dst, name, builtin_of_name name, Array.of_list (List.map decode_op args))
    | Ir.Print v -> DPrint (decode_op v)
    | Ir.Prints s -> DPrints s
  in
  { di = i; dd }

let decode_block layout (b : Ir.block) =
  {
    db_instrs = Array.of_list (List.map (decode_instr layout) b.Ir.instrs);
    db_term =
      (match b.Ir.bterm with
      | Ir.Br t -> TBr t
      | Ir.Cbr (c, a, b) -> TCbr (decode_op c, a, b)
      | Ir.Ret op -> TRet (Option.map decode_op op));
  }

let decode_func layout (f : Ir.func) =
  { df_func = f; df_blocks = Array.map (decode_block layout) f.Ir.fblocks }

(* Decoding is pure per program, and the dynamic stage builds evaluators
   for the same program over and over (one per whole-program verification
   run), so decoded function tables are memoized on physical program
   identity.  A decoded table is immutable once published, hence safe to
   share between contexts and across domains; the mutex only guards the
   cache list.  The cache keeps the last few programs alive — bounded, and
   negligible next to their heaps. *)
let decode_cache : (Ir.program * (string, dfunc) Hashtbl.t) list ref = ref []
let decode_cache_mutex = Mutex.create ()
let decode_cache_limit = 8

let decoded_funcs prog =
  Mutex.protect decode_cache_mutex (fun () ->
      match List.find_opt (fun (p, _) -> p == prog) !decode_cache with
      | Some (_, funcs) -> funcs
      | None ->
          let funcs = Hashtbl.create 16 in
          List.iter
            (fun f -> Hashtbl.replace funcs f.Ir.fname (decode_func prog.Ir.p_layout f))
            prog.Ir.p_funcs;
          decode_cache :=
            (prog, funcs) :: List.filteri (fun k _ -> k < decode_cache_limit - 1) !decode_cache;
          funcs)

let create ?(fuel = default_fuel) ?deadline_ns ?heap_words ?checkpoint ?(input = []) prog =
  {
    prog;
    st = Store.create ?mode:checkpoint prog ~input;
    funcs = decoded_funcs prog;
    sink = None;
    nsteps = 0;
    fuel;
    deadline =
      (match deadline_ns with
      | None -> max_int
      | Some d -> Dca_support.Telemetry.now_ns () + d);
    heap_limit =
      (match heap_words with
      | None -> max_int
      | Some w -> (Gc.quick_stat ()).Gc.heap_words + w);
    next_guard = guard_interval;
    interceptors = [];
  }

let fork ctx =
  {
    prog = ctx.prog;
    st = Store.copy ctx.st;
    funcs = ctx.funcs;
    sink = None;
    nsteps = ctx.nsteps;
    fuel = ctx.fuel;
    deadline = ctx.deadline;
    heap_limit = ctx.heap_limit;
    next_guard = ctx.nsteps + guard_interval;
    interceptors = [];
  }

let program ctx = ctx.prog
let store ctx = ctx.st
let steps ctx = ctx.nsteps

let set_limits ctx ~fuel ~deadline =
  ctx.fuel <- fuel;
  ctx.deadline <- deadline

(* A run that executed the [n] instructions itself would have stopped at
   the instruction that passed the bound, so the count stops there too. *)
let charge ctx n =
  ctx.nsteps <- ctx.nsteps + n;
  if ctx.nsteps > ctx.fuel then begin
    ctx.nsteps <- ctx.fuel + 1;
    raise Out_of_fuel
  end

let set_sink ctx sink = ctx.sink <- sink
let outputs ctx = Store.outputs ctx.st

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

let read_var frame (v : Ir.var) =
  let x = frame.regs.(v.vslot) in
  match x with VUndef -> trap "use of uninitialized variable '%s' in %s" v.vname frame.ffunc.fname | _ -> x

let write_var frame (v : Ir.var) x = frame.regs.(v.vslot) <- x

(* Operand evaluation outside any instruction (terminators): register
   reads are attributed to instruction id -1, constants are free. *)
let eval_dop ctx frame = function
  | Dvar v ->
      (match ctx.sink with Some s -> s.Events.on_read (Events.Lreg v.Ir.vid) (-1) | None -> ());
      read_var frame v
  | Dconst v -> v

let eval_operand ctx frame op = eval_dop ctx frame (decode_op op)

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let int2 name f a b =
  match (a, b) with VInt x, VInt y -> VInt (f x y) | _ -> trap "%s expects ints" name

let float2 name f a b =
  match (a, b) with VFloat x, VFloat y -> VFloat (f x y) | _ -> trap "%s expects floats" name

let compare_values rel a b =
  let of_bool b = VInt (if b then 1 else 0) in
  let ord cmp =
    match rel with
    | Ir.Req -> cmp = 0
    | Ir.Rne -> cmp <> 0
    | Ir.Rlt -> cmp < 0
    | Ir.Rle -> cmp <= 0
    | Ir.Rgt -> cmp > 0
    | Ir.Rge -> cmp >= 0
  in
  match (a, b) with
  | VInt x, VInt y -> of_bool (ord (compare x y))
  | VFloat x, VFloat y -> of_bool (ord (compare x y))
  | (VPtr _ | VNull), (VPtr _ | VNull) -> begin
      match rel with
      | Ir.Req -> of_bool (a = b)
      | Ir.Rne -> of_bool (a <> b)
      | _ -> trap "ordered comparison of pointers"
    end
  | _ -> trap "comparison of incompatible values %s and %s" (to_string a) (to_string b)

let eval_binop op a b =
  match op with
  | Ir.Add -> int2 "add" ( + ) a b
  | Ir.Sub -> int2 "sub" ( - ) a b
  | Ir.Mul -> int2 "mul" ( * ) a b
  | Ir.Div -> (
      match b with VInt 0 -> trap "integer division by zero" | _ -> int2 "div" ( / ) a b)
  | Ir.Mod -> (
      match b with VInt 0 -> trap "integer modulo by zero" | _ -> int2 "mod" (fun x y -> x mod y) a b)
  | Ir.Fadd -> float2 "fadd" ( +. ) a b
  | Ir.Fsub -> float2 "fsub" ( -. ) a b
  | Ir.Fmul -> float2 "fmul" ( *. ) a b
  | Ir.Fdiv -> float2 "fdiv" ( /. ) a b
  | Ir.Cmp rel -> compare_values rel a b
  | Ir.Andl -> int2 "and" (fun x y -> if x <> 0 && y <> 0 then 1 else 0) a b
  | Ir.Orl -> int2 "or" (fun x y -> if x <> 0 || y <> 0 then 1 else 0) a b

let eval_unop op a =
  match (op, a) with
  | Ir.Neg, VInt x -> VInt (-x)
  | Ir.Fneg, VFloat x -> VFloat (-.x)
  | Ir.Not, VInt x -> VInt (if x = 0 then 1 else 0)
  | Ir.Not, VNull -> VInt 1
  | Ir.Not, VPtr _ -> VInt 0
  | Ir.Itof, VInt x -> VFloat (float_of_int x)
  | Ir.Ftoi, VFloat x -> VInt (int_of_float x)
  | _ -> trap "unary %s applied to %s" (Ir.unop_to_string op) (to_string a)

(* hrand: a pure hash-based PRN in [0,1) — splitmix64 finalizer. *)
let hrand_of_int i =
  let z = Int64.of_int i in
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let float1 name f = function VFloat x -> VFloat (f x) | v -> trap "%s expects a float, got %s" name (to_string v)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let emit_read ctx loc instr =
  match ctx.sink with Some s -> s.Events.on_read loc instr | None -> ()

let emit_write ctx loc instr =
  match ctx.sink with Some s -> s.Events.on_write loc instr | None -> ()

(* Rare path of the periodic guard: refresh the threshold, give the
   [eval.step] fault point a deterministic hit, then check the wall-clock
   deadline and the heap budget if set. *)
let guard_check ctx =
  ctx.next_guard <- ctx.nsteps + guard_interval;
  (match Dca_support.Faultpoint.hit fp_step with
  | Dca_support.Faultpoint.Pass -> ()
  | Dca_support.Faultpoint.Fire_trap ->
      trap "%s" (Dca_support.Faultpoint.injected_msg "eval.step")
  | Dca_support.Faultpoint.Fire_fuel -> raise Out_of_fuel);
  if ctx.deadline <> max_int && Dca_support.Telemetry.now_ns () > ctx.deadline then
    raise Deadline_exceeded;
  if ctx.heap_limit <> max_int && (Gc.quick_stat ()).Gc.heap_words > ctx.heap_limit then
    raise Heap_exhausted

(* The idle interceptor of block [bid] of [fname], if any.  One shared
   run intercepts every tested loop, so this runs on every block transfer
   with several interceptors installed: compare the header first. *)
let rec interceptor_at its fname bid =
  match its with
  | [] -> None
  | it :: rest ->
      if it.it_header = bid && (not it.it_active) && String.equal it.it_fname fname then Some it
      else interceptor_at rest fname bid

let rec exec_instr ctx frame (d : dinstr) =
  ctx.nsteps <- ctx.nsteps + 1;
  if ctx.nsteps > ctx.fuel then raise Out_of_fuel;
  if ctx.nsteps >= ctx.next_guard then guard_check ctx;
  let i = d.di in
  (match ctx.sink with Some s -> s.Events.on_exec i | None -> ());
  (* operand evaluation with register-read events attributed to [i] *)
  let ev op =
    match op with
    | Dvar v ->
        emit_read ctx (Events.Lreg v.Ir.vid) i.Ir.iid;
        read_var frame v
    | Dconst v -> v
  in
  let def v x =
    emit_write ctx (Events.Lreg v.Ir.vid) i.Ir.iid;
    write_var frame v x
  in
  match d.dd with
  | DBin (dst, op, a, b) ->
      let va = ev a in
      let vb = ev b in
      def dst (eval_binop op va vb)
  | DUn (dst, op, a) -> def dst (eval_unop op (ev a))
  | DMov (dst, a) -> def dst (ev a)
  | DLoad (dst, p) -> begin
      match ev p with
      | VPtr (block, off) ->
          emit_read ctx (Events.Lheap (block, off)) i.Ir.iid;
          let v =
            try Store.load ctx.st ~block ~off with Failure msg -> trap "%s" msg
          in
          def dst v
      | VNull -> trap "load through null pointer at %s" (Dca_frontend.Loc.to_string i.Ir.iloc)
      | v -> trap "load through non-pointer %s" (to_string v)
    end
  | DStore (p, src) -> begin
      match ev p with
      | VPtr (block, off) ->
          let v = ev src in
          emit_write ctx (Events.Lheap (block, off)) i.Ir.iid;
          (try Store.store ctx.st ~block ~off v with Failure msg -> trap "%s" msg)
      | VNull -> trap "store through null pointer at %s" (Dca_frontend.Loc.to_string i.Ir.iloc)
      | v -> trap "store through non-pointer %s" (to_string v)
    end
  | DGep (dst, base, idx, scale) -> begin
      match (ev base, ev idx) with
      | VPtr (block, off), VInt k -> def dst (VPtr (block, off + (k * scale)))
      | VNull, _ -> trap "pointer arithmetic on null at %s" (Dca_frontend.Loc.to_string i.Ir.iloc)
      | vb, vi -> trap "gep on %s with index %s" (to_string vb) (to_string vi)
    end
  | DGload (dst, g) ->
      emit_read ctx (Events.Lglob g.Ir.vslot) i.Ir.iid;
      def dst (Store.read_global ctx.st g.Ir.vslot)
  | DGstore (g, src) ->
      let v = ev src in
      emit_write ctx (Events.Lglob g.Ir.vslot) i.Ir.iid;
      Store.write_global ctx.st g.Ir.vslot v
  | DGaddr (dst, g) -> def dst (Store.read_global ctx.st g.Ir.vslot)
  | DAlloc (dst, kinds, count) -> begin
      match ev count with
      | VInt n when n >= 0 ->
          let id = Store.alloc ctx.st kinds ~count:n in
          def dst (VPtr (id, 0))
      | v -> trap "alloc with bad count %s" (to_string v)
    end
  | DCall (dst, name, builtin, args) -> begin
      let n = Array.length args in
      let vargs = Array.make n VNull in
      for k = 0 to n - 1 do
        vargs.(k) <- ev args.(k)
      done;
      let user_call () =
        let ret = call_user ctx name vargs in
        match (dst, ret) with
        | Some d, Some v -> def d v
        | Some d, None -> trap "function %s returned no value for %s" name d.Ir.vname
        | None, _ -> ()
      in
      match builtin with
      | Some b -> begin
          (* a builtin name with the wrong arity falls through to a user
             function of the same name, exactly like the name-based
             dispatch did *)
          match eval_builtin ctx i b vargs with
          | Some result -> ( match dst with Some d -> def d result | None -> ())
          | None -> user_call ()
        end
      | None -> user_call ()
    end
  | DPrint v -> Store.print_value ctx.st (ev v)
  | DPrints s -> Store.print_string_ ctx.st s

and eval_builtin ctx instr b (args : Value.t array) : Value.t option =
  let iid = instr.Ir.iid in
  match (b, args) with
  | Bsqrt, [| v |] -> Some (float1 "sqrt" sqrt v)
  | Bfabs, [| v |] -> Some (float1 "fabs" abs_float v)
  | Bsin, [| v |] -> Some (float1 "sin" sin v)
  | Bcos, [| v |] -> Some (float1 "cos" cos v)
  | Bexp, [| v |] -> Some (float1 "exp" exp v)
  | Blog, [| v |] -> Some (float1 "log" log v)
  | Bfloor, [| v |] -> Some (float1 "floor" floor v)
  | Bpow, [| a; b |] -> Some (float2 "pow" ( ** ) a b)
  | Bfmod, [| a; b |] -> Some (float2 "fmod" Float.rem a b)
  | Bfmin, [| a; b |] -> Some (float2 "fmin" Float.min a b)
  | Bfmax, [| a; b |] -> Some (float2 "fmax" Float.max a b)
  | Bimin, [| a; b |] -> Some (int2 "imin" min a b)
  | Bimax, [| a; b |] -> Some (int2 "imax" max a b)
  | Biabs, [| v |] -> Some (match v with VInt x -> VInt (abs x) | _ -> trap "iabs expects an int")
  | Bitof, [| v |] -> Some (eval_unop Ir.Itof v)
  | Bftoi, [| v |] -> Some (eval_unop Ir.Ftoi v)
  | Bhrand, [| v |] -> Some (match v with VInt x -> VFloat (hrand_of_int x) | _ -> trap "hrand expects an int")
  | Bdrand, [||] ->
      emit_read ctx Events.Lrng iid;
      emit_write ctx Events.Lrng iid;
      Some (VFloat (Store.drand ctx.st))
  | Bdseed, [| v |] ->
      emit_write ctx Events.Lrng iid;
      (match v with VInt x -> Store.dseed ctx.st x | _ -> trap "dseed expects an int");
      Some (VInt 0)
  | Breads, [||] -> Some (VInt (Store.read_input ctx.st))
  | _ -> None

and call_user ctx name (vargs : Value.t array) : Value.t option =
  let f =
    match Hashtbl.find_opt ctx.funcs name with
    | Some f -> f
    | None -> trap "call to undefined function '%s'" name
  in
  let fn = f.df_func in
  let frame = { ffunc = fn; fcode = f.df_blocks; regs = Array.make fn.Ir.fnslots VUndef } in
  let nargs = Array.length vargs in
  let rec bind k = function
    | [] -> if k <> nargs then trap "arity mismatch calling %s" name
    | p :: ps ->
        if k >= nargs then trap "arity mismatch calling %s" name
        else begin
          write_var frame p vargs.(k);
          bind (k + 1) ps
        end
  in
  bind 0 fn.Ir.fparams;
  (match ctx.sink with Some s -> s.Events.on_call name | None -> ());
  let result =
    match exec_from ctx frame fn.Ir.fentry ~stop:(fun _ -> false) ~control:None ~src:(-1) with
    | Returned v -> v
    | Stopped_at _ -> assert false
  in
  (match ctx.sink with Some s -> s.Events.on_return name | None -> ());
  result

(* Core block-chain executor.  [src] is the predecessor block (-1 on
   entry); [stop] is consulted on every transfer except the initial one. *)
and exec_from ctx frame bid ~stop ~control ~src : stop_reason =
  (* interceptors fire on transfers into their header during any execution
     in which they are not already active *)
  match interceptor_at ctx.interceptors frame.ffunc.Ir.fname bid with
  | Some it ->
      it.it_active <- true;
      let continue_at =
        Fun.protect
          ~finally:(fun () -> it.it_active <- false)
          (fun () -> match it.it_handler with Handler h -> h ctx frame)
      in
      exec_from ctx frame continue_at ~stop ~control ~src:bid
  | None ->
      (match ctx.sink with Some s -> s.Events.on_block ~fname:frame.ffunc.Ir.fname ~src ~dst:bid | None -> ());
      let blk = frame.fcode.(bid) in
      let instrs = blk.db_instrs in
      (match control with
      | None ->
          for k = 0 to Array.length instrs - 1 do
            exec_instr ctx frame instrs.(k)
          done
      | Some c ->
          for k = 0 to Array.length instrs - 1 do
            let d = instrs.(k) in
            if c.sc_filter d.di then exec_instr ctx frame d
          done);
      let continue_to target =
        if stop target then begin
          (* surface the pending transfer so recorders see loop-exit and
             latch edges even though the target block is not executed *)
          (match ctx.sink with
          | Some s -> s.Events.on_block ~fname:frame.ffunc.Ir.fname ~src:bid ~dst:target
          | None -> ());
          Stopped_at target
        end
        else exec_from ctx frame target ~stop ~control ~src:bid
      in
      (match blk.db_term with
      | TBr t -> continue_to t
      | TCbr (c, a, b) -> begin
          let forced = match control with Some ctl -> ctl.sc_override bid | None -> None in
          match forced with
          | Some t -> continue_to t
          | None ->
              let v = eval_dop ctx frame c in
              continue_to (if truthy v then a else b)
        end
      | TRet op -> Returned (Option.map (eval_dop ctx frame) op))

let exec_upto ctx frame ~start ~stop ~control = exec_from ctx frame start ~stop ~control ~src:(-1)

let call_function ctx name args = call_user ctx name (Array.of_list args)

let run_main ctx = ignore (call_user ctx "main" [||])

let frame_for ctx fname =
  match Hashtbl.find_opt ctx.funcs fname with
  | Some f -> { ffunc = f.df_func; fcode = f.df_blocks; regs = Array.make f.df_func.Ir.fnslots VUndef }
  | None -> invalid_arg (Printf.sprintf "Eval.frame_for: no function '%s'" fname)

let copy_frame frame = { frame with regs = Array.copy frame.regs }

let add_interceptor ctx ~fname ~header handler =
  ctx.interceptors <-
    { it_fname = fname; it_header = header; it_active = false; it_handler = Handler handler }
    :: ctx.interceptors

let without_interceptors ctx f =
  let saved = ctx.interceptors in
  ctx.interceptors <- [];
  Fun.protect ~finally:(fun () -> ctx.interceptors <- saved) f

let globals_of ctx =
  Array.to_list (Array.mapi (fun slot g -> (g, Store.read_global ctx.st slot)) ctx.prog.Ir.p_globals)

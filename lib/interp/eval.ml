open Dca_ir
open Value

exception Trap of string
exception Out_of_fuel
exception Deadline_exceeded
exception Heap_exhausted

(* ------------------------------------------------------------------ *)
(* Closure-compiled code                                               *)
(* ------------------------------------------------------------------ *)

(* The evaluator does not interpret [Ir.instr] lists: every function of a
   program is compiled once into arrays of OCaml closures, one per
   instruction, and the block loop calls them.  Operands are resolved
   when a closure is built: a register operand becomes a slot read that
   keeps its uninitialized-variable trap, a constant becomes its
   ready-made value, and every binary operator is its own closure.  Each
   instruction is compiled into a plain closure that emits nothing and an
   observed one that emits exactly the sink events the instruction
   produces (its register locations are built with the closure).  A
   memory or call instruction gets a third, memory closure, which emits
   only its [on_exec] and its heap, global and generator events; every
   other instruction's memory closure is its plain one.  A block chooses
   one of the three arrays from the context's sink kind when it starts
   ({!set_sink}): under a [Control] sink it runs the plain closures and
   only its transfers, calls and returns are reported, under a [Memory]
   sink the memory closures. *)

type rop =
  | Oconst of Value.t
  | Oreg of int * Ir.var * Events.loc  (** frame slot, the variable, its [Lreg] location *)

type frame = { ffunc : Ir.func; fcode : dblock array; regs : Value.t array }

and code = ctx -> frame -> unit

and dblock = {
  db_src : Ir.instr array;  (** the source instructions, for step-control filters *)
  db_plain : code array;  (** run while the context has no sink, or a [Control] one *)
  db_observed : code array;  (** the same instructions, emitting every sink event *)
  db_memory : code array;  (** the same instructions, emitting memory events only *)
  db_leaf : bool;  (** no instruction calls a user function: no step is taken outside the block *)
  db_term : dterm;
}

and dterm = TBr of int | TCbr of rop * int * int | TRet of rop option

(* [df_blocks] is filled in once while the program is compiled, before the
   table is published: calls resolve their callee when they are built,
   and functions may call each other in any order. *)
and dfunc = { df_func : Ir.func; mutable df_blocks : dblock array }

and interceptor = { it_fname : string; it_header : int; mutable it_active : bool; it_handler : handler }
and handler = Handler of (ctx -> frame -> int)

and sink_kind = Control | Memory | All

and ctx = {
  prog : Ir.program;
  st : Store.t;
  funcs : (string, dfunc) Hashtbl.t;
  mutable sink : Events.sink option;  (** receives control events: transfers, calls, returns *)
  mutable isink : Events.sink option;  (** receives every instruction event: [sink] under an [All] sink *)
  mutable msink : Events.sink option;  (** receives memory events only: [sink] under a [Memory] sink *)
  mutable nsteps : int;
  mutable fuel : int;  (** absolute step bound *)
  mutable deadline : int;  (** absolute [Telemetry.now_ns] bound; [max_int] = none *)
  heap_limit : int;  (** absolute major-heap words ceiling; [max_int] = none *)
  mutable next_guard : int;  (** step count of the next periodic guard check *)
  mutable interceptors : interceptor list;
  mutable filtered : filtered list;  (** kept closures per step-control filter, newest first *)
}

(* The closures a filter keeps in one function's blocks, indexed by block
   id and filled in as the blocks are first entered under the filter. *)
and filtered = { fl_filter : Ir.instr -> bool; fl_code : dblock array; fl_kept : kept array }
and kept = { k_plain : code array; k_observed : code array; k_memory : code array }

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

let hit_fault ?ctx site =
  let module Faultpoint = Dca_support.Faultpoint in
  match Faultpoint.hit ?ctx site with
  | Faultpoint.Pass -> ()
  | Faultpoint.Fire_trap -> raise (Trap (Faultpoint.injected_msg ?ctx (Faultpoint.site_name site)))
  | Faultpoint.Fire_fuel -> raise Out_of_fuel

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

let undefined frame (v : Ir.var) =
  trap "use of uninitialized variable '%s' in %s" v.Ir.vname frame.ffunc.Ir.fname

let reg frame slot v = match frame.regs.(slot) with VUndef -> undefined frame v | x -> x

(* Operand reads: plain, and observed — the register-read event comes
   before the read, so it is emitted also when the read traps. *)
let pread frame = function Oconst v -> v | Oreg (slot, v, _) -> reg frame slot v

let oread (s : Events.sink) iid frame = function
  | Oconst v -> v
  | Oreg (slot, v, loc) ->
      s.Events.on_read loc iid;
      reg frame slot v

let emit_write ctx loc iid = match ctx.isink with Some s -> s.Events.on_write loc iid | None -> ()

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Rare path of the periodic guard: refresh the threshold, give the
   [eval.step] fault point a deterministic hit, then check the wall-clock
   deadline and the heap budget if set. *)
let guard_check ctx =
  ctx.next_guard <- ctx.nsteps + guard_interval;
  hit_fault fp_step;
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

(* The filter cache.  A filter is a pure function of the instruction, so
   it is called once per block it meets and its verdicts are kept, keyed
   on the filter closure's physical identity (the entry holds the closure,
   so the key cannot be recycled).  One replay uses two filters; the few
   newest are kept. *)
let filter_cache_limit = 4
let unfilled = { k_plain = [||]; k_observed = [||]; k_memory = [||] }
let no_filtered = { fl_filter = (fun _ -> false); fl_code = [||]; fl_kept = [||] }

let rec find_filtered filter code = function
  | [] -> no_filtered
  | fl :: rest ->
      if fl.fl_filter == filter && fl.fl_code == code then fl else find_filtered filter code rest

let keep filter blk =
  let idx = List.filter (fun k -> filter blk.db_src.(k)) (List.init (Array.length blk.db_src) Fun.id) in
  let pick code = Array.of_list (List.map (fun k -> code.(k)) idx) in
  { k_plain = pick blk.db_plain; k_observed = pick blk.db_observed; k_memory = pick blk.db_memory }

let kept_code ctx frame filter bid blk =
  let fl =
    let fl = find_filtered filter frame.fcode ctx.filtered in
    if fl != no_filtered then fl
    else begin
      let fl =
        { fl_filter = filter; fl_code = frame.fcode; fl_kept = Array.make (Array.length frame.fcode) unfilled }
      in
      ctx.filtered <- fl :: List.filteri (fun k _ -> k < filter_cache_limit - 1) ctx.filtered;
      fl
    end
  in
  let k = fl.fl_kept.(bid) in
  if k != unfilled then k
  else begin
    let k = keep filter blk in
    fl.fl_kept.(bid) <- k;
    k
  end

let block_code ctx frame control bid blk =
  match control with
  | None -> (
      match ctx.isink with
      | Some _ -> blk.db_observed
      | None -> ( match ctx.msink with None -> blk.db_plain | Some _ -> blk.db_memory))
  | Some c -> (
      let k = kept_code ctx frame c.sc_filter bid blk in
      match ctx.isink with
      | Some _ -> k.k_observed
      | None -> ( match ctx.msink with None -> k.k_plain | Some _ -> k.k_memory))

(* Terminator operands: register reads are attributed to instruction id
   -1, constants are free. *)
let term_read ctx frame = function
  | Oconst v -> v
  | Oreg (slot, v, loc) ->
      (match ctx.isink with Some s -> s.Events.on_read loc (-1) | None -> ());
      reg frame slot v

let term_test ctx frame c = match term_read ctx frame c with VInt n -> n <> 0 | v -> truthy v

(* The closures of a leaf block whose steps are already counted from
   [s]: a raise inside it leaves the count at the raising instruction, as
   counting every step before its closure does. *)
let run_counted ctx frame code s =
  let k = ref 0 in
  try
    while !k < Array.length code do
      (Array.unsafe_get code !k) ctx frame;
      incr k
    done
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ctx.nsteps <- s + !k + 1;
    Printexc.raise_with_backtrace e bt

(* Core block-chain executor.  [src] is the predecessor block (-1 on
   entry); [stop] is consulted on every transfer except the initial one.
   Every executed instruction counts the step, checks the fuel, checks
   the guard, then runs its closure.  A leaf block that ends below the
   fuel bound and before the next guard point can do neither, so it
   counts its steps at once and then runs its closures: the count any
   observer reads outside the block is the same, and no callee runs
   inside it to read it. *)
let rec exec_from ctx frame bid ~stop ~control ~src : stop_reason =
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
  | None -> (
      (match ctx.sink with Some s -> s.Events.on_block ~fname:frame.ffunc.Ir.fname ~src ~dst:bid | None -> ());
      let blk = frame.fcode.(bid) in
      let code = block_code ctx frame control bid blk in
      let s = ctx.nsteps and n = Array.length code in
      if blk.db_leaf && s + n <= ctx.fuel && s + n < ctx.next_guard then begin
        ctx.nsteps <- s + n;
        run_counted ctx frame code s
      end
      else
        for k = 0 to n - 1 do
          ctx.nsteps <- ctx.nsteps + 1;
          if ctx.nsteps > ctx.fuel then raise Out_of_fuel;
          if ctx.nsteps >= ctx.next_guard then guard_check ctx;
          (Array.unsafe_get code k) ctx frame
        done;
      match blk.db_term with
      | TBr t -> transfer ctx frame bid t ~stop ~control
      | TCbr (c, a, b) -> (
          let forced = match control with Some ctl -> ctl.sc_override bid | None -> None in
          match forced with
          | Some t -> transfer ctx frame bid t ~stop ~control
          | None -> transfer ctx frame bid (if term_test ctx frame c then a else b) ~stop ~control)
      | TRet None -> Returned None
      | TRet (Some op) -> Returned (Some (term_read ctx frame op)))

and transfer ctx frame bid target ~stop ~control =
  if stop target then begin
    (* surface the pending transfer so recorders see loop-exit and latch
       edges even though the target block is not executed *)
    (match ctx.sink with
    | Some s -> s.Events.on_block ~fname:frame.ffunc.Ir.fname ~src:bid ~dst:target
    | None -> ());
    Stopped_at target
  end
  else exec_from ctx frame target ~stop ~control ~src:bid

let never _ = false

(* Run [df] on the register file [regs], its parameters already bound. *)
let enter ctx name df regs =
  let fn = df.df_func in
  let frame = { ffunc = fn; fcode = df.df_blocks; regs } in
  (match ctx.sink with Some s -> s.Events.on_call name | None -> ());
  let result =
    match exec_from ctx frame fn.Ir.fentry ~stop:never ~control:None ~src:(-1) with
    | Returned v -> v
    | Stopped_at _ -> assert false
  in
  (match ctx.sink with Some s -> s.Events.on_return name | None -> ());
  result

let call_user ctx name callee (vargs : Value.t array) : Value.t option =
  let df = match callee with Some df -> df | None -> trap "call to undefined function '%s'" name in
  let fn = df.df_func in
  let regs = Array.make fn.Ir.fnslots VUndef in
  let nargs = Array.length vargs in
  let rec bind k = function
    | [] -> if k <> nargs then trap "arity mismatch calling %s" name
    | (p : Ir.var) :: ps ->
        if k >= nargs then trap "arity mismatch calling %s" name
        else begin
          regs.(p.Ir.vslot) <- vargs.(k);
          bind (k + 1) ps
        end
  in
  bind 0 fn.Ir.fparams;
  enter ctx name df regs

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let vzero = VInt 0
let vone = VInt 1
let of_bool b = if b then vone else vzero

let compare_values rel a b =
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

(* Comparisons take an int fast path; every other pair goes through
   [compare_values]. *)
let compare_op rel : Value.t -> Value.t -> Value.t =
  let slow = compare_values rel in
  match rel with
  | Ir.Req -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x = y) | _ -> slow a b)
  | Ir.Rne -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x <> y) | _ -> slow a b)
  | Ir.Rlt -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x < y) | _ -> slow a b)
  | Ir.Rle -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x <= y) | _ -> slow a b)
  | Ir.Rgt -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x > y) | _ -> slow a b)
  | Ir.Rge -> fun a b -> ( match (a, b) with VInt x, VInt y -> of_bool (x >= y) | _ -> slow a b)

let int2 name f a b =
  match (a, b) with VInt x, VInt y -> VInt (f x y) | _ -> trap "%s expects ints" name

let float2 name f a b =
  match (a, b) with VFloat x, VFloat y -> VFloat (f x y) | _ -> trap "%s expects floats" name

let binop (op : Ir.binop) : Value.t -> Value.t -> Value.t =
  match op with
  | Ir.Add -> fun a b -> ( match (a, b) with VInt x, VInt y -> VInt (x + y) | _ -> trap "add expects ints")
  | Ir.Sub -> fun a b -> ( match (a, b) with VInt x, VInt y -> VInt (x - y) | _ -> trap "sub expects ints")
  | Ir.Mul -> fun a b -> ( match (a, b) with VInt x, VInt y -> VInt (x * y) | _ -> trap "mul expects ints")
  | Ir.Div -> (
      fun a b ->
        match (a, b) with
        | _, VInt 0 -> trap "integer division by zero"
        | VInt x, VInt y -> VInt (x / y)
        | _ -> trap "div expects ints")
  | Ir.Mod -> (
      fun a b ->
        match (a, b) with
        | _, VInt 0 -> trap "integer modulo by zero"
        | VInt x, VInt y -> VInt (x mod y)
        | _ -> trap "mod expects ints")
  | Ir.Fadd ->
      fun a b -> ( match (a, b) with VFloat x, VFloat y -> VFloat (x +. y) | _ -> trap "fadd expects floats")
  | Ir.Fsub ->
      fun a b -> ( match (a, b) with VFloat x, VFloat y -> VFloat (x -. y) | _ -> trap "fsub expects floats")
  | Ir.Fmul ->
      fun a b -> ( match (a, b) with VFloat x, VFloat y -> VFloat (x *. y) | _ -> trap "fmul expects floats")
  | Ir.Fdiv ->
      fun a b -> ( match (a, b) with VFloat x, VFloat y -> VFloat (x /. y) | _ -> trap "fdiv expects floats")
  | Ir.Cmp rel -> compare_op rel
  | Ir.Andl -> int2 "and" (fun x y -> if x <> 0 && y <> 0 then 1 else 0)
  | Ir.Orl -> int2 "or" (fun x y -> if x <> 0 || y <> 0 then 1 else 0)

let unop (op : Ir.unop) : Value.t -> Value.t =
  let fail a = trap "unary %s applied to %s" (Ir.unop_to_string op) (to_string a) in
  match op with
  | Ir.Neg -> ( function VInt x -> VInt (-x) | a -> fail a)
  | Ir.Fneg -> ( function VFloat x -> VFloat (-.x) | a -> fail a)
  | Ir.Not -> ( function VInt x -> of_bool (x = 0) | VNull -> vone | VPtr _ -> vzero | a -> fail a)
  | Ir.Itof -> ( function VInt x -> VFloat (float_of_int x) | a -> fail a)
  | Ir.Ftoi -> ( function VFloat x -> VInt (int_of_float x) | a -> fail a)

(* hrand: a pure hash-based PRN in [0,1) — splitmix64 finalizer. *)
let hrand_of_int i =
  let z = Int64.of_int i in
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let float1 name f = function VFloat x -> VFloat (f x) | v -> trap "%s expects a float, got %s" name (to_string v)

(* A builtin call whose argument count matches the builtin; any other
   count falls through to a user function of the same name. *)
type builtin =
  | Pure1 of (Value.t -> Value.t)
  | Pure2 of (Value.t -> Value.t -> Value.t)
  | Drand
  | Dseed
  | Reads

let builtin name nargs =
  match (name, nargs) with
  | "sqrt", 1 -> Some (Pure1 (float1 "sqrt" sqrt))
  | "fabs", 1 -> Some (Pure1 (float1 "fabs" abs_float))
  | "sin", 1 -> Some (Pure1 (float1 "sin" sin))
  | "cos", 1 -> Some (Pure1 (float1 "cos" cos))
  | "exp", 1 -> Some (Pure1 (float1 "exp" exp))
  | "log", 1 -> Some (Pure1 (float1 "log" log))
  | "floor", 1 -> Some (Pure1 (float1 "floor" floor))
  | "pow", 2 -> Some (Pure2 (float2 "pow" ( ** )))
  | "fmod", 2 -> Some (Pure2 (float2 "fmod" Float.rem))
  | "fmin", 2 -> Some (Pure2 (float2 "fmin" Float.min))
  | "fmax", 2 -> Some (Pure2 (float2 "fmax" Float.max))
  | "imin", 2 -> Some (Pure2 (int2 "imin" min))
  | "imax", 2 -> Some (Pure2 (int2 "imax" max))
  | "iabs", 1 -> Some (Pure1 (function VInt x -> VInt (abs x) | _ -> trap "iabs expects an int"))
  | "itof", 1 -> Some (Pure1 (unop Ir.Itof))
  | "ftoi", 1 -> Some (Pure1 (unop Ir.Ftoi))
  | "hrand", 1 -> Some (Pure1 (function VInt x -> VFloat (hrand_of_int x) | _ -> trap "hrand expects an int"))
  | "drand", 0 -> Some Drand
  | "dseed", 1 -> Some Dseed
  | "reads", 0 -> Some Reads
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rop = function
  | Ir.Ovar v -> Oreg (v.Ir.vslot, v, Events.Lreg v.Ir.vid)
  | Ir.Oint n -> Oconst (VInt n)
  | Ir.Ofloat f -> Oconst (VFloat f)
  | Ir.Onull -> Oconst VNull

let load_cell ctx block off = try Store.load ctx.st ~block ~off with Failure msg -> raise (Trap msg)
let store_cell ctx block off v = try Store.store ctx.st ~block ~off v with Failure msg -> raise (Trap msg)
let at (i : Ir.instr) = Dca_frontend.Loc.to_string i.Ir.iloc

(* [observe i plain body]: the observed closure of [i].  It runs [plain]
   if the instruction sink went away since its block started. *)
let observe (i : Ir.instr) (plain : code) body : code =
 fun ctx frame ->
  match ctx.isink with
  | None -> plain ctx frame
  | Some s ->
      s.Events.on_exec i;
      body s ctx frame

(* [observe_memory i plain body]: the memory closure of [i], likewise
   for the memory sink. *)
let observe_memory (i : Ir.instr) (plain : code) body : code =
 fun ctx frame ->
  match ctx.msink with
  | None -> plain ctx frame
  | Some s ->
      s.Events.on_exec i;
      body s ctx frame

(* The memory closure of a call without memory events. *)
let exec_only i plain = observe_memory i plain (fun _ -> plain)

let bin_plain f d a b : code =
  match (a, b) with
  | Oreg (sa, va, _), Oreg (sb, vb, _) ->
      fun _ frame ->
        let x = reg frame sa va in
        let y = reg frame sb vb in
        frame.regs.(d) <- f x y
  | Oreg (sa, va, _), Oconst y -> fun _ frame -> frame.regs.(d) <- f (reg frame sa va) y
  | Oconst x, Oreg (sb, vb, _) -> fun _ frame -> frame.regs.(d) <- f x (reg frame sb vb)
  | Oconst x, Oconst y -> fun _ frame -> frame.regs.(d) <- f x y

let compile_call funcs (i : Ir.instr) dst name args : code * code * code =
  let iid = i.Ir.iid in
  let args = Array.of_list (List.map rop args) in
  let n = Array.length args in
  let d, dloc = match dst with Some v -> (v.Ir.vslot, Events.Lreg v.Ir.vid) | None -> (-1, Events.Lrng) in
  let set frame r = if d >= 0 then frame.regs.(d) <- r in
  let oset s frame r =
    if d >= 0 then begin
      s.Events.on_write dloc iid;
      frame.regs.(d) <- r
    end
  in
  match builtin name n with
  | Some (Pure1 f) ->
      let a = args.(0) in
      let plain _ frame = set frame (f (pread frame a)) in
      (plain, observe i plain (fun s _ frame -> oset s frame (f (oread s iid frame a))), exec_only i plain)
  | Some (Pure2 f) ->
      let a = args.(0) and b = args.(1) in
      let plain _ frame =
        let x = pread frame a in
        let y = pread frame b in
        set frame (f x y)
      in
      ( plain,
        observe i plain (fun s _ frame ->
            let x = oread s iid frame a in
            let y = oread s iid frame b in
            oset s frame (f x y)),
        exec_only i plain )
  | Some Drand ->
      let plain ctx frame = set frame (VFloat (Store.drand ctx.st)) in
      ( plain,
        observe i plain (fun s ctx frame ->
            s.Events.on_read Events.Lrng iid;
            s.Events.on_write Events.Lrng iid;
            oset s frame (VFloat (Store.drand ctx.st))),
        observe_memory i plain (fun s ctx frame ->
            s.Events.on_read Events.Lrng iid;
            s.Events.on_write Events.Lrng iid;
            plain ctx frame) )
  | Some Dseed ->
      let a = args.(0) in
      let seed ctx = function VInt x -> Store.dseed ctx.st x | _ -> trap "dseed expects an int" in
      let plain ctx frame =
        seed ctx (pread frame a);
        set frame vzero
      in
      ( plain,
        observe i plain (fun s ctx frame ->
            let v = oread s iid frame a in
            s.Events.on_write Events.Lrng iid;
            seed ctx v;
            oset s frame vzero),
        observe_memory i plain (fun s ctx frame ->
            let v = pread frame a in
            s.Events.on_write Events.Lrng iid;
            seed ctx v;
            set frame vzero) )
  | Some Reads ->
      let plain ctx frame = set frame (VInt (Store.read_input ctx.st)) in
      ( plain,
        observe i plain (fun s ctx frame -> oset s frame (VInt (Store.read_input ctx.st))),
        exec_only i plain )
  | None -> (
      let finish ctx frame = function
        | Some v ->
            if d >= 0 then begin
              emit_write ctx dloc iid;
              frame.regs.(d) <- v
            end
        | None -> (
            match dst with
            | Some v -> trap "function %s returned no value for %s" name v.Ir.vname
            | None -> ())
      in
      match Hashtbl.find_opt funcs name with
      | Some df when List.length df.df_func.Ir.fparams = n ->
          (* bind the arguments straight into the callee's registers, in
             parameter order as [call_user] does *)
          let params = Array.of_list (List.map (fun (p : Ir.var) -> p.Ir.vslot) df.df_func.Ir.fparams) in
          let nslots = df.df_func.Ir.fnslots in
          let plain ctx frame =
            let regs = Array.make nslots VUndef in
            for k = 0 to n - 1 do
              regs.(params.(k)) <- pread frame args.(k)
            done;
            finish ctx frame (enter ctx name df regs)
          in
          ( plain,
            observe i plain (fun s ctx frame ->
                let regs = Array.make nslots VUndef in
                for k = 0 to n - 1 do
                  regs.(params.(k)) <- oread s iid frame args.(k)
                done;
                finish ctx frame (enter ctx name df regs)),
            exec_only i plain )
      | callee ->
          let plain ctx frame =
            let vargs = Array.make n VNull in
            for k = 0 to n - 1 do
              vargs.(k) <- pread frame args.(k)
            done;
            finish ctx frame (call_user ctx name callee vargs)
          in
          ( plain,
            observe i plain (fun s ctx frame ->
                let vargs = Array.make n VNull in
                for k = 0 to n - 1 do
                  vargs.(k) <- oread s iid frame args.(k)
                done;
                finish ctx frame (call_user ctx name callee vargs)),
            exec_only i plain ))

(* The plain, the observed and the memory closure of one instruction. *)
let compile_instr funcs layout (i : Ir.instr) : code * code * code =
  let iid = i.Ir.iid in
  match i.Ir.idesc with
  | Ir.Bin (dst, op, a, b) ->
      let f = binop op and a = rop a and b = rop b in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let plain = bin_plain f d a b in
      ( plain,
        observe i plain (fun s _ frame ->
            let x = oread s iid frame a in
            let y = oread s iid frame b in
            let r = f x y in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- r),
        plain )
  | Ir.Un (dst, op, a) ->
      let f = unop op and a = rop a in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let plain _ frame = frame.regs.(d) <- f (pread frame a) in
      ( plain,
        observe i plain (fun s _ frame ->
            let r = f (oread s iid frame a) in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- r),
        plain )
  | Ir.Mov (dst, a) ->
      let a = rop a in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let plain : code =
        match a with
        | Oreg (sa, va, _) -> fun _ frame -> frame.regs.(d) <- reg frame sa va
        | Oconst c -> fun _ frame -> frame.regs.(d) <- c
      in
      ( plain,
        observe i plain (fun s _ frame ->
            let r = oread s iid frame a in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- r),
        plain )
  | Ir.Load (dst, p) ->
      let p = rop p in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let bad = function
        | VNull -> trap "load through null pointer at %s" (at i)
        | v -> trap "load through non-pointer %s" (to_string v)
      in
      let plain : code =
        match p with
        | Oreg (sp, varp, _) -> (
            fun ctx frame ->
              match reg frame sp varp with
              | VPtr (block, off) -> frame.regs.(d) <- load_cell ctx block off
              | v -> bad v)
        | Oconst _ -> (
            fun ctx frame ->
              match pread frame p with VPtr (block, off) -> frame.regs.(d) <- load_cell ctx block off | v -> bad v)
      in
      ( plain,
        observe i plain (fun s ctx frame ->
            match oread s iid frame p with
            | VPtr (block, off) ->
                s.Events.on_read (Events.Lheap (block, off)) iid;
                let v = load_cell ctx block off in
                s.Events.on_write dloc iid;
                frame.regs.(d) <- v
            | v -> bad v),
        observe_memory i plain (fun s ctx frame ->
            match pread frame p with
            | VPtr (block, off) ->
                s.Events.on_read (Events.Lheap (block, off)) iid;
                frame.regs.(d) <- load_cell ctx block off
            | v -> bad v) )
  | Ir.Store (p, src) ->
      let p = rop p and src = rop src in
      let bad = function
        | VNull -> trap "store through null pointer at %s" (at i)
        | v -> trap "store through non-pointer %s" (to_string v)
      in
      let plain : code =
        match p with
        | Oreg (sp, varp, _) -> (
            fun ctx frame ->
              match reg frame sp varp with
              | VPtr (block, off) -> store_cell ctx block off (pread frame src)
              | v -> bad v)
        | Oconst _ -> (
            fun ctx frame ->
              match pread frame p with VPtr (block, off) -> store_cell ctx block off (pread frame src) | v -> bad v)
      in
      ( plain,
        observe i plain (fun s ctx frame ->
            match oread s iid frame p with
            | VPtr (block, off) ->
                let v = oread s iid frame src in
                s.Events.on_write (Events.Lheap (block, off)) iid;
                store_cell ctx block off v
            | v -> bad v),
        observe_memory i plain (fun s ctx frame ->
            match pread frame p with
            | VPtr (block, off) ->
                let v = pread frame src in
                s.Events.on_write (Events.Lheap (block, off)) iid;
                store_cell ctx block off v
            | v -> bad v) )
  | Ir.Gep (dst, base, idx, scale) ->
      (* the base is read before the index *)
      let base = rop base and idx = rop idx in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let gep vb vi =
        match (vb, vi) with
        | VPtr (block, off), VInt k -> VPtr (block, off + (k * scale))
        | VNull, _ -> trap "pointer arithmetic on null at %s" (at i)
        | vb, vi -> trap "gep on %s with index %s" (to_string vb) (to_string vi)
      in
      (* [gep] traps on every pair but the one the fast paths handle *)
      let plain : code =
        match (base, idx) with
        | Oreg (sb, varb, _), Oconst (VInt k as vi) -> (
            let delta = k * scale in
            fun _ frame ->
              match reg frame sb varb with
              | VPtr (block, off) -> frame.regs.(d) <- VPtr (block, off + delta)
              | vb -> frame.regs.(d) <- gep vb vi)
        | Oreg (sb, varb, _), Oreg (si, vari, _) -> (
            fun _ frame ->
              let vb = reg frame sb varb in
              match (vb, reg frame si vari) with
              | VPtr (block, off), VInt k -> frame.regs.(d) <- VPtr (block, off + (k * scale))
              | vb, vi -> frame.regs.(d) <- gep vb vi)
        | _ ->
            fun _ frame ->
              let vb = pread frame base in
              frame.regs.(d) <- gep vb (pread frame idx)
      in
      ( plain,
        observe i plain (fun s _ frame ->
            let vb = oread s iid frame base in
            let vi = oread s iid frame idx in
            let r = gep vb vi in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- r),
        plain )
  | Ir.Gload (dst, g) ->
      let gs = g.Ir.vslot and gloc = Events.Lglob g.Ir.vslot in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let plain ctx frame = frame.regs.(d) <- Store.read_global ctx.st gs in
      ( plain,
        observe i plain (fun s ctx frame ->
            s.Events.on_read gloc iid;
            let v = Store.read_global ctx.st gs in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- v),
        observe_memory i plain (fun s ctx frame ->
            s.Events.on_read gloc iid;
            frame.regs.(d) <- Store.read_global ctx.st gs) )
  | Ir.Gstore (g, src) ->
      let gs = g.Ir.vslot and gloc = Events.Lglob g.Ir.vslot and src = rop src in
      let plain ctx frame = Store.write_global ctx.st gs (pread frame src) in
      ( plain,
        observe i plain (fun s ctx frame ->
            let v = oread s iid frame src in
            s.Events.on_write gloc iid;
            Store.write_global ctx.st gs v),
        observe_memory i plain (fun s ctx frame ->
            let v = pread frame src in
            s.Events.on_write gloc iid;
            Store.write_global ctx.st gs v) )
  | Ir.Gaddr (dst, g) ->
      let gs = g.Ir.vslot in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let plain ctx frame = frame.regs.(d) <- Store.read_global ctx.st gs in
      ( plain,
        observe i plain (fun s ctx frame ->
            let v = Store.read_global ctx.st gs in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- v),
        plain )
  | Ir.Alloc (dst, ty, count) ->
      let kinds = Layout.cell_kinds layout ty and count = rop count in
      let d = dst.Ir.vslot and dloc = Events.Lreg dst.Ir.vid in
      let alloc ctx = function
        | VInt n when n >= 0 -> VPtr (Store.alloc ctx.st kinds ~count:n, 0)
        | v -> trap "alloc with bad count %s" (to_string v)
      in
      let plain ctx frame = frame.regs.(d) <- alloc ctx (pread frame count) in
      ( plain,
        observe i plain (fun s ctx frame ->
            let r = alloc ctx (oread s iid frame count) in
            s.Events.on_write dloc iid;
            frame.regs.(d) <- r),
        plain )
  | Ir.Call (dst, name, args) -> compile_call funcs i dst name args
  | Ir.Print v ->
      let v = rop v in
      let plain ctx frame = Store.print_value ctx.st (pread frame v) in
      (plain, observe i plain (fun s ctx frame -> Store.print_value ctx.st (oread s iid frame v)), plain)
  | Ir.Prints str ->
      let plain ctx _ = Store.print_string_ ctx.st str in
      (plain, observe i plain (fun _ ctx _ -> Store.print_string_ ctx.st str), plain)

let compile_block funcs layout (b : Ir.block) =
  let src = Array.of_list b.Ir.instrs in
  let code = Array.map (compile_instr funcs layout) src in
  {
    db_src = src;
    db_plain = Array.map (fun (plain, _, _) -> plain) code;
    db_observed = Array.map (fun (_, observed, _) -> observed) code;
    db_memory = Array.map (fun (_, _, memory) -> memory) code;
    db_leaf =
      Array.for_all
        (fun (i : Ir.instr) ->
          match i.Ir.idesc with Ir.Call (_, name, args) -> builtin name (List.length args) <> None | _ -> true)
        src;
    db_term =
      (match b.Ir.bterm with
      | Ir.Br t -> TBr t
      | Ir.Cbr (c, a, b) -> TCbr (rop c, a, b)
      | Ir.Ret op -> TRet (Option.map rop op));
  }

let compile_program (prog : Ir.program) =
  let funcs = Hashtbl.create 16 in
  let dfuncs = List.map (fun f -> { df_func = f; df_blocks = [||] }) prog.Ir.p_funcs in
  List.iter (fun df -> Hashtbl.replace funcs df.df_func.Ir.fname df) dfuncs;
  List.iter
    (fun df -> df.df_blocks <- Array.map (compile_block funcs prog.Ir.p_layout) df.df_func.Ir.fblocks)
    dfuncs;
  funcs

(* Compilation is pure per program, and the dynamic stage builds
   evaluators for the same program over and over (one per whole-program
   verification run), so compiled function tables are memoized on
   physical program identity.  A compiled table is immutable once
   published and its closures capture no state of a run, so every
   context and every fork, on any domain, shares it; the mutex guards the
   cache list and publishes the table.  The cache keeps the last few
   programs alive — bounded, and negligible next to their heaps. *)
let decode_cache : (Ir.program * (string, dfunc) Hashtbl.t) list ref = ref []
let decode_cache_mutex = Mutex.create ()
let decode_cache_limit = 8

let decoded_funcs prog =
  Mutex.protect decode_cache_mutex (fun () ->
      match List.find_opt (fun (p, _) -> p == prog) !decode_cache with
      | Some (_, funcs) -> funcs
      | None ->
          let funcs = compile_program prog in
          decode_cache :=
            (prog, funcs) :: List.filteri (fun k _ -> k < decode_cache_limit - 1) !decode_cache;
          funcs)

let create ?(fuel = default_fuel) ?deadline_ns ?heap_words ?checkpoint ?(input = []) prog =
  {
    prog;
    st = Store.create ?mode:checkpoint prog ~input;
    funcs = decoded_funcs prog;
    sink = None;
    isink = None;
    msink = None;
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
    filtered = [];
  }

let fork ?steps ctx =
  let nsteps = Option.value steps ~default:ctx.nsteps in
  {
    prog = ctx.prog;
    st = Store.copy ctx.st;
    funcs = ctx.funcs;
    sink = None;
    isink = None;
    msink = None;
    nsteps;
    fuel = ctx.fuel;
    deadline = ctx.deadline;
    heap_limit = ctx.heap_limit;
    next_guard = nsteps + guard_interval;
    interceptors = [];
    filtered = [];
  }

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

let set_sink ?(kind = All) ctx sink =
  ctx.sink <- sink;
  ctx.isink <- (match kind with All -> sink | Memory | Control -> None);
  ctx.msink <- (match kind with Memory -> sink | All | Control -> None)

let outputs ctx = Store.outputs ctx.st

let exec_upto ctx frame ~start ~stop ~control = exec_from ctx frame start ~stop ~control ~src:(-1)

let run_main ctx = ignore (call_user ctx "main" (Hashtbl.find_opt ctx.funcs "main") [||])

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

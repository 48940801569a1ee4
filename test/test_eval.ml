(* Differential check of the closure-compiled evaluator: [Dca_interp.Eval]
   must do exactly what [Eval_ref], the pre-decoded evaluator it
   replaced, does — the same outputs, step counts, traps (message and
   which fires first), [Out_of_fuel] at the same step, the same sink
   event stream, and the same filtered [exec_upto] runs under a
   step control (slice-only and payload-only execution of every
   candidate loop, with forced branch directions). *)

open Dca_ir
open Dca_interp
open Dca_analysis
module Intset = Dca_support.Intset

(* The part of an evaluator's interface the checks drive. *)
module type EVAL = sig
  type ctx
  type frame

  val create : ?fuel:int -> input:int list -> Ir.program -> ctx
  val run_main : ctx -> unit
  val outputs : ctx -> string list
  val steps : ctx -> int
  val store : ctx -> Store.t
  val set_sink : ctx -> Events.sink option -> unit
  val set_fuel : ctx -> int -> unit
  val regs : frame -> Value.t array
  val add_interceptor : ctx -> fname:string -> header:int -> (ctx -> frame -> int) -> unit
  val without_interceptors : ctx -> (unit -> 'a) -> 'a

  val exec_upto :
    ctx -> frame -> start:int -> stop:(int -> bool) ->
    control:((Ir.instr -> bool) * (int -> int option)) option ->
    [ `Stopped of int | `Returned of Value.t option ]

  val describe : exn -> string
end

(* [Eval], its sinks attached with the given kind. *)
module Compiled_with (K : sig
  val kind : Eval.sink_kind
end) : EVAL = struct
  module E = Eval

  type ctx = E.ctx
  type frame = E.frame

  let create ?fuel ~input p = E.create ?fuel ~input p
  let run_main = E.run_main
  let outputs = E.outputs
  let steps = E.steps
  let store = E.store
  let set_sink ctx s = E.set_sink ~kind:K.kind ctx s
  let set_fuel ctx fuel = E.set_limits ctx ~fuel ~deadline:max_int
  let regs (f : frame) = f.E.regs
  let add_interceptor = E.add_interceptor
  let without_interceptors = E.without_interceptors

  let exec_upto ctx frame ~start ~stop ~control =
    let control = Option.map (fun (f, o) -> { E.sc_filter = f; sc_override = o }) control in
    match E.exec_upto ctx frame ~start ~stop ~control with
    | E.Stopped_at b -> `Stopped b
    | E.Returned v -> `Returned v

  let describe = function
    | E.Trap msg -> "trap: " ^ msg
    | E.Out_of_fuel -> "out of fuel"
    | E.Deadline_exceeded -> "deadline"
    | E.Heap_exhausted -> "heap exhausted"
    | e -> "raised " ^ Printexc.to_string e
end

module Compiled = Compiled_with (struct
  let kind = Eval.All
end)

module Reference : EVAL = struct
  module E = Eval_ref

  type ctx = E.ctx
  type frame = E.frame

  let create ?fuel ~input p = E.create ?fuel ~input p
  let run_main = E.run_main
  let outputs = E.outputs
  let steps = E.steps
  let store = E.store
  let set_sink = E.set_sink
  let set_fuel ctx fuel = E.set_limits ctx ~fuel ~deadline:max_int
  let regs (f : frame) = f.E.regs
  let add_interceptor = E.add_interceptor
  let without_interceptors = E.without_interceptors

  let exec_upto ctx frame ~start ~stop ~control =
    let control = Option.map (fun (f, o) -> { E.sc_filter = f; sc_override = o }) control in
    match E.exec_upto ctx frame ~start ~stop ~control with
    | E.Stopped_at b -> `Stopped b
    | E.Returned v -> `Returned v

  let describe = function
    | E.Trap msg -> "trap: " ^ msg
    | E.Out_of_fuel -> "out of fuel"
    | E.Deadline_exceeded -> "deadline"
    | E.Heap_exhausted -> "heap exhausted"
    | e -> "raised " ^ Printexc.to_string e
end

(* ------------------------------------------------------------------ *)
(* Event streams                                                       *)
(* ------------------------------------------------------------------ *)

(* A recording sink folds every callback and its arguments into a
   running hash, and keeps the hash at every [window]-th event so a
   divergence can be located. *)
let window = 4096

type recorder = { mutable events : int; mutable hash : int; mutable marks : int list }

let recorder () = { events = 0; hash = 0; marks = [] }
let feed r x = r.hash <- (r.hash lxor x) * 0x100000001B3

let event r tag args =
  feed r tag;
  List.iter (feed r) args;
  r.events <- r.events + 1;
  if r.events mod window = 0 then r.marks <- r.hash :: r.marks

let loc_args = function
  | Events.Lheap (b, o) -> [ 1; b; o ]
  | Events.Lglob s -> [ 2; s ]
  | Events.Lreg v -> [ 3; v ]
  | Events.Lrng -> [ 4 ]

let sink r =
  {
    Events.on_exec = (fun i -> event r 1 [ i.Ir.iid ]);
    on_read = (fun loc iid -> event r 2 (iid :: loc_args loc));
    on_write = (fun loc iid -> event r 3 (iid :: loc_args loc));
    on_block = (fun ~fname ~src ~dst -> event r 4 [ Hashtbl.hash fname; src; dst ]);
    on_call = (fun name -> event r 5 [ Hashtbl.hash name ]);
    on_return = (fun name -> event r 6 [ Hashtbl.hash name ]);
  }

let stream r = Printf.sprintf "%d events, hash %x" r.events r.hash

(* Where two streams first part, to the window. *)
let divergence a b =
  let rec first k = function
    | x :: xs, y :: ys -> if x = y then first (k + 1) (xs, ys) else Some k
    | _ -> None
  in
  match first 0 (List.rev a.marks, List.rev b.marks) with
  | Some k -> Printf.sprintf " (streams part within events %d-%d)" (k * window) (((k + 1) * window) - 1)
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let value_hash = function
  | Value.VInt n -> n
  | Value.VFloat f -> Int64.to_int (Int64.bits_of_float f)
  | Value.VPtr (b, o) -> (b * 1_000_003) + o
  | Value.VNull -> 7
  | Value.VUndef -> 11

(* Every heap cell, hashed. *)
let heap_hash st =
  let h = ref 0 in
  for id = 0 to Store.heap_blocks st - 1 do
    match Store.block_cells st id with
    | Some cells -> Array.iter (fun v -> h := (!h lxor value_hash v) * 0x100000001B3) cells
    | None -> h := !h + 1
  done;
  !h

let regs_string regs = String.concat "," (Array.to_list (Array.map Value.to_string regs))

let default_fuel = Dca_interp.Eval.default_fuel

module Harness (E : EVAL) = struct
  let ending ctx f =
    let e = match f () with () -> "completed" | exception ex -> E.describe ex in
    Printf.sprintf "%s; steps %d; outputs [%s]" e (E.steps ctx) (String.concat "|" (E.outputs ctx))

  (* The whole program, without a sink or with a recording one: how it
     ended, and its steps. *)
  let run ?fuel ?recorder prog input =
    let ctx = E.create ?fuel ~input prog in
    Option.iter (fun r -> E.set_sink ctx (Some (sink r))) recorder;
    let e = ending ctx (fun () -> E.run_main ctx) in
    (e, E.steps ctx)

  (* Each candidate loop's first invocation re-runs the loop from its
     entry state under step controls, plain and observed: the slice with
     live branches, the slice with forced branches, and the payload with
     the slice's branches forced, as a replay's passes are.  Each pass
     records how it ended, its steps, the registers, a heap hash and its
     event stream; then the entry state is restored and the program goes
     on.  A pass may run away (its induction filtered out), so it gets a
     fuel budget. *)
  let controlled prog input loops =
    let ctx = E.create ~input prog in
    let log = ref [] in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (label, (sep : Dca_core.Iterator_rec.separation)) ->
        let loop = sep.sep_loop in
        let header = loop.Loops.l_header in
        let in_loop b = Intset.mem b loop.Loops.l_blocks in
        let fn = Ir.find_func_exn prog loop.Loops.l_func in
        (* a forced direction: stay in the loop for the first visits of a
           block, then leave *)
        let forcing only =
          let visits = Hashtbl.create 8 in
          fun bid ->
            if not (only bid) then None
            else
              match fn.Ir.fblocks.(bid).Ir.bterm with
              | Ir.Cbr (_, a, b) ->
                  let n = Option.value (Hashtbl.find_opt visits bid) ~default:0 in
                  Hashtbl.replace visits bid (n + 1);
                  let inside, outside = if in_loop a then (a, b) else (b, a) in
                  Some (if n < 3 then inside else outside)
              | _ -> None
        in
        let slice i = Intset.mem i.Ir.iid sep.sep_slice in
        let payload i = Intset.mem i.Ir.iid sep.sep_payload in
        let passes =
          [
            ("slice", slice, fun () _ -> None);
            ("slice forced", slice, fun () -> forcing in_loop);
            ("payload", payload, fun () -> forcing (fun b -> Intset.mem b sep.sep_slice_cbr_blocks));
          ]
        in
        let handler ctx frame =
          if not (Hashtbl.mem seen label) then begin
            Hashtbl.add seen label ();
            let st = E.store ctx in
            let s0 = Store.snapshot st in
            let regs = E.regs frame in
            let regs0 = Array.copy regs in
            let restore () =
              Store.restore st s0;
              Array.blit regs0 0 regs 0 (Array.length regs0)
            in
            E.without_interceptors ctx (fun () ->
                List.iter
                  (fun (name, filter, override) ->
                    List.iter
                      (fun observed ->
                        restore ();
                        let r = recorder () in
                        if observed then E.set_sink ctx (Some (sink r));
                        let s = E.steps ctx in
                        E.set_fuel ctx (s + 200_000);
                        let e =
                          match
                            E.exec_upto ctx frame ~start:header
                              ~stop:(fun b -> not (in_loop b))
                              ~control:(Some (filter, override ()))
                          with
                          | `Stopped b -> Printf.sprintf "stopped at %d" b
                          | `Returned _ -> "returned"
                          | exception ex -> E.describe ex
                        in
                        E.set_sink ctx None;
                        E.set_fuel ctx default_fuel;
                        log :=
                          Printf.sprintf "%s %s%s: %s; steps %d; heap %x; regs [%s]; %s" label name
                            (if observed then " observed" else "")
                            e (E.steps ctx - s) (heap_hash st) (regs_string regs) (stream r)
                          :: !log)
                      [ false; true ])
                  passes);
            restore ();
            Store.release st s0
          end;
          match
            E.exec_upto ctx frame ~start:header ~stop:(fun b -> not (in_loop b)) ~control:None
          with
          | `Stopped b -> b
          | `Returned _ -> failwith "a candidate loop returned"
        in
        E.add_interceptor ctx ~fname:loop.Loops.l_func ~header handler)
      loops;
    let e = ending ctx (fun () -> E.run_main ctx) in
    List.rev (e :: !log)
end

module C = Harness (Compiled)
module R = Harness (Reference)

let check_runs name prog input =
  let plain, steps = R.run prog input in
  Alcotest.(check string) (name ^ ": run") plain (fst (C.run prog input));
  let rr = recorder () and rc = recorder () in
  let recorded = fst (R.run ~recorder:rr prog input) in
  let got = fst (C.run ~recorder:rc prog input) in
  Alcotest.(check string) (name ^ ": run under a sink") recorded got;
  Alcotest.(check string) (name ^ ": event stream" ^ divergence rr rc) (stream rr) (stream rc);
  (* the sweep: every budget ends the run at the same step, with the
     same outputs *)
  List.iter
    (fun fuel ->
      Alcotest.(check string)
        (Printf.sprintf "%s: fuel %d" name fuel)
        (fst (R.run ~fuel prog input))
        (fst (C.run ~fuel prog input)))
    (List.sort_uniq compare
       ([ 0; 1; 2; 7; steps - 1; steps; steps + 1 ] @ List.init 7 (fun k -> (k + 1) * steps / 8)))

let candidates info =
  List.filter_map
    (fun (fi, loop) ->
      match Dca_core.Candidate.examine info fi loop with
      | Dca_core.Candidate.Accepted sep -> Some (Proginfo.loop_label info sep.sep_loop, sep)
      | Dca_core.Candidate.Rejected _ -> None)
    (Proginfo.all_loops info)

let check_controlled name prog input =
  let loops = candidates (Proginfo.analyze prog) in
  List.iter2
    (fun r c -> Alcotest.(check string) (name ^ ": controlled") r c)
    (R.controlled prog input loops) (C.controlled prog input loops)

let compile name src = Lower.compile ~file:name src

let test_registry () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) ->
      let prog = compile bm.bm_name bm.bm_source in
      check_runs bm.bm_name prog bm.bm_input;
      check_controlled bm.bm_name prog bm.bm_input)
    Dca_progs.Registry.all

(* The corpus programs, by file name. *)
let corpus () =
  let dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let test_corpus () =
  let files = corpus () in
  Alcotest.(check int) "corpus programs" 10 (List.length files);
  List.iter
    (fun (f, src) ->
      let prog = compile f src in
      check_runs f prog [];
      check_controlled f prog [])
    files

(* The fuzzer's programs: seed 42, as [dca fuzz --seed 42] draws them. *)
let test_generated () =
  let root = Dca_support.Prng.create 42 in
  for k = 1 to 200 do
    let g = Dca_gen.Gen_program.generate ~max_iters:4 (Dca_support.Prng.split root) in
    check_runs (Printf.sprintf "generated #%d" k) (compile "<gen>" g.Dca_gen.Gen_program.g_source) []
  done

(* ------------------------------------------------------------------ *)
(* Edge programs                                                       *)
(* ------------------------------------------------------------------ *)

(* One program per trap message a typechecked program can reach, and
   programs where the order in which operands are read decides which trap
   fires: a [Gep] reads its base before its index, a binary operation its
   left operand first. *)
let trap_programs =
  [
    ("uninitialized", "void main() { int x; printi(1); printi(x); }", "use of uninitialized variable");
    ( "uninitialized branch condition",
      "void main() { int x; printi(1); if (x > 0) { printi(2); } }",
      "use of uninitialized variable" );
    ( "uninitialized call argument",
      "int f(int a) { return a; } void main() { int x; printi(f(x)); }",
      "use of uninitialized variable" );
    ( "uninitialized return value",
      "int f() { int r; return r; } void main() { printi(f()); }",
      "use of uninitialized variable" );
    ("division by zero", "int z; void main() { printi(7); printi(10 / z); }", "integer division by zero");
    ("modulo by zero", "void main() { int z; z = 0; printi(5 % z); }", "integer modulo by zero");
    ( "division: left operand first",
      "void main() { int x; int y; printi(x / y); }",
      "use of uninitialized variable 'x'" );
    ( "null field",
      "struct node { int v; struct node *next; }; void main() { struct node *p; p = null; printi(p->v); }",
      "pointer arithmetic on null" );
    ( "null field store",
      "struct node { int v; struct node *next; }; void main() { struct node *p; p = null; p->next = p; }",
      "pointer arithmetic on null" );
    ( "gep: base before index",
      "void main() { int *p; int i; printi(p[i]); }",
      "use of uninitialized variable 'p'" );
    ( "gep: null base, then the index",
      "void main() { int *p; int i; p = null; printi(p[i]); }",
      "use of uninitialized variable 'i'" );
    ("bad alloc count", "void main() { int n; int *a; n = 0 - 3; a = new int[n]; }", "alloc with bad count -3");
    ( "no return value",
      "int f(int x) { if (x > 0) { return 1; } } void main() { printi(f(2)); printi(f(0)); }",
      "returned no value" );
    ("out-of-bounds load", "int a[4]; void main() { int i; i = 7; printi(a[i]); }", "out-of-bounds load");
    ("out-of-bounds store", "int a[4]; void main() { int i; i = 7; a[i] = 2; }", "out-of-bounds store");
  ]

let contains s sub =
  let n = String.length sub in
  let rec at k = k + n <= String.length s && (String.sub s k n = sub || at (k + 1)) in
  at 0

(* Hand-built IR the typechecker would refuse: every call of a compiled
   program rewritten by [f], and a function renamed. *)
let map_calls prog f =
  List.iter
    (fun fn ->
      Array.iter
        (fun b ->
          b.Ir.instrs <-
            List.map
              (fun (i : Ir.instr) ->
                match i.Ir.idesc with
                | Ir.Call (d, name, args) ->
                    let name, args = f name args in
                    { i with Ir.idesc = Ir.Call (d, name, args) }
                | _ -> i)
              b.Ir.instrs)
        fn.Ir.fblocks)
    prog.Ir.p_funcs;
  prog

let rename_func prog ~from ~into =
  {
    prog with
    Ir.p_funcs = List.map (fun f -> if f.Ir.fname = from then { f with Ir.fname = into } else f) prog.Ir.p_funcs;
  }

let test_edges () =
  let check_trap name prog expected =
    let ending = fst (C.run prog []) in
    Alcotest.(check bool) (Printf.sprintf "%s: %s in %S" name expected ending) true (contains ending expected);
    check_runs name prog []
  in
  List.iter (fun (name, src, expected) -> check_trap name (compile name src) expected) trap_programs;
  let pick = "int pick(int a, int b, int c) { return a + b * c; } void main() { printi(pick(1, 2, 3)); }" in
  let calls_to into = fun name args -> ((if name = "pick" then into else name), args) in
  (* a builtin name called with the wrong arity falls through to a user
     function of that name *)
  let prog = rename_func (map_calls (compile "<arity>" pick) (calls_to "imin")) ~from:"pick" ~into:"imin" in
  Alcotest.(check string) "wrong-arity builtin runs the user function" "completed; steps 4; outputs [7]"
    (fst (C.run prog []));
  check_runs "wrong-arity builtin" prog [];
  (* without one it is an undefined function, and a user function called
     with the wrong arity traps *)
  check_trap "undefined function"
    (map_calls (compile "<undefined>" pick) (calls_to "imin"))
    "call to undefined function 'imin'";
  check_trap "arity mismatch"
    (map_calls (compile "<arity>" pick) (fun name args ->
         if name = "pick" then (name, [ List.hd args ]) else (name, args)))
    "arity mismatch calling pick"

(* ------------------------------------------------------------------ *)
(* Every budget                                                        *)
(* ------------------------------------------------------------------ *)

(* Programs that trap deep into a run, inside a block of several
   instructions: a store past the end of an array, and a division by
   zero between two additions. *)
let late_traps =
  [
    ( "late out-of-bounds store",
      "int a[700]; void main() { int i; for (i = 0; i < 800; i = i + 1) { a[i] = i * 2 + 1; } }" );
    ( "late division by zero",
      "void main() { int i; int s; s = 0; for (i = 0; i < 900; i = i + 1) { s = s + i * 3; s = s + 10 / (i - 850); s = s - 1; } printi(s); }"
    );
  ]

(* A leaf block counts its steps at once when it ends below the fuel
   bound and the next guard point, so a budget that runs out inside a
   block, or a trap inside one, must still end the run at the same
   instruction as the reference, which counts every step before running
   it.  Every budget from 0 to 2,000 and every budget within 8 steps of
   a trap: the ending, the steps and the outputs must be equal. *)
let test_every_budget () =
  let registry =
    List.map
      (fun name ->
        let bm = Dca_progs.Registry.find_exn name in
        (name, compile name bm.Dca_progs.Benchmark.bm_source, bm.Dca_progs.Benchmark.bm_input))
      [ "LU"; "BT"; "treeadd"; "BFS"; "DC" ]
  in
  let others =
    List.map (fun (f, src) -> (f, compile f src, [])) (corpus ())
    @ List.map (fun (name, src, _) -> (name, compile name src, [])) trap_programs
    @ List.map (fun (name, src) -> (name, compile name src, [])) late_traps
  in
  let traps = ref 0 in
  List.iter
    (fun (name, prog, input) ->
      let ending, steps = R.run prog input in
      let near_trap =
        if contains ending "completed" then []
        else begin
          incr traps;
          List.init 17 (fun k -> steps - 8 + k)
        end
      in
      List.iter
        (fun fuel ->
          Alcotest.(check string)
            (Printf.sprintf "%s: fuel %d" name fuel)
            (fst (R.run ~fuel prog input))
            (fst (C.run ~fuel prog input)))
        (List.sort_uniq compare (List.init 2001 Fun.id @ List.filter (fun f -> f >= 0) near_trap)))
    (registry @ others);
  Alcotest.(check bool) "the late traps trap" true (!traps >= List.length trap_programs + List.length late_traps)

(* ------------------------------------------------------------------ *)
(* Control-only sinks                                                  *)
(* ------------------------------------------------------------------ *)

(* A recording sink that records only transfers, calls and returns. *)
let control_events r =
  { (sink r) with Events.on_exec = ignore; on_read = (fun _ _ -> ()); on_write = (fun _ _ -> ()) }

(* Under a control-only sink a run is a plain run — the same outputs,
   steps and ending, also when the fuel runs out — whose sink sees the
   control part of what a full sink sees, and no instruction event. *)
let check_control_only name prog input =
  let run ?fuel ?kind sink =
    let ctx = Eval.create ?fuel ~input prog in
    Option.iter (fun s -> Eval.set_sink ?kind ctx (Some s)) sink;
    let e = match Eval.run_main ctx with () -> "completed" | exception ex -> Compiled.describe ex in
    let steps = Eval.steps ctx in
    (Printf.sprintf "%s; steps %d; outputs [%s]" e steps (String.concat "|" (Eval.outputs ctx)), steps)
  in
  let instruction_events = ref 0 in
  let count _ = incr instruction_events in
  let control_only r =
    { (control_events r) with Events.on_exec = count; on_read = (fun _ -> count); on_write = (fun _ -> count) }
  in
  let plain, steps = run None in
  let full = recorder () and control = recorder () in
  ignore (run (Some (control_events full)));
  Alcotest.(check string) (name ^ ": control-only run") plain
    (fst (run ~kind:Eval.Control (Some (control_only control))));
  Alcotest.(check string) (name ^ ": control events" ^ divergence full control) (stream full) (stream control);
  Alcotest.(check bool) (name ^ ": control events seen") true (control.events > 0);
  let fuel = steps / 2 in
  Alcotest.(check string)
    (Printf.sprintf "%s: control-only run, fuel %d" name fuel)
    (fst (run ~fuel None))
    (fst (run ~fuel ~kind:Eval.Control (Some (control_only (recorder ())))));
  Alcotest.(check int) (name ^ ": instruction events under a control-only sink") 0 !instruction_events

let test_control_only () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) -> check_control_only bm.bm_name (compile bm.bm_name bm.bm_source) bm.bm_input)
    Dca_progs.Registry.all;
  List.iter (fun (f, src) -> check_control_only f (compile f src) []) (corpus ());
  List.iter (fun (name, src, _) -> check_control_only name (compile name src) []) trap_programs

(* ------------------------------------------------------------------ *)
(* Memory sinks                                                        *)
(* ------------------------------------------------------------------ *)

(* The instructions whose [on_exec] a memory sink receives. *)
let memory_instr (i : Ir.instr) =
  match i.Ir.idesc with
  | Ir.Load _ | Ir.Store _ | Ir.Gload _ | Ir.Gstore _ | Ir.Call _ -> true
  | _ -> false

let memory_loc = function Events.Lreg _ -> false | Events.Lheap _ | Events.Lglob _ | Events.Lrng -> true

(* What a memory sink may see of [s]'s stream: the control events, the
   [on_exec] of memory and call instructions, and no register event. *)
let memory_view (s : Events.sink) =
  {
    s with
    Events.on_exec = (fun i -> if memory_instr i then s.Events.on_exec i);
    on_read = (fun loc iid -> if memory_loc loc then s.Events.on_read loc iid);
    on_write = (fun loc iid -> if memory_loc loc then s.Events.on_write loc iid);
  }

(* Events a memory sink received that it must not see. *)
let stray_events = ref 0

let counting_strays (s : Events.sink) =
  let stray () = incr stray_events in
  {
    s with
    Events.on_exec = (fun i -> if not (memory_instr i) then stray (); s.Events.on_exec i);
    on_read = (fun loc iid -> if not (memory_loc loc) then stray (); s.Events.on_read loc iid);
    on_write = (fun loc iid -> if not (memory_loc loc) then stray (); s.Events.on_write loc iid);
  }

(* A full sink, filtered down to the memory view in the sink... *)
module Full_filtered : EVAL = struct
  include Compiled

  let set_sink ctx s = Compiled.set_sink ctx (Option.map memory_view s)
end

(* ... and a memory sink, which must see exactly that. *)
module Memory_kind : EVAL = struct
  module M = Compiled_with (struct
    let kind = Eval.Memory
  end)

  include M

  let set_sink ctx s = M.set_sink ctx (Option.map counting_strays s)
end

module F = Harness (Full_filtered)
module M = Harness (Memory_kind)

(* Under a memory sink a run is a plain run — the same outputs, steps and
   ending, at every budget of the sweep — and the sink sees a full sink's
   stream with the register events and the other instructions' [on_exec]
   removed; so do the filtered loop passes of every candidate loop. *)
let check_memory ?(controlled = true) name prog input =
  stray_events := 0;
  let plain, steps = C.run prog input in
  let full = recorder () and memory = recorder () in
  Alcotest.(check string) (name ^ ": run under a memory sink") plain (fst (M.run ~recorder:memory prog input));
  ignore (F.run ~recorder:full prog input);
  Alcotest.(check string) (name ^ ": memory events" ^ divergence full memory) (stream full) (stream memory);
  List.iter
    (fun fuel ->
      Alcotest.(check string)
        (Printf.sprintf "%s: memory sink, fuel %d" name fuel)
        (fst (C.run ~fuel prog input))
        (fst (M.run ~fuel ~recorder:(recorder ()) prog input)))
    (List.sort_uniq compare
       ([ 0; 1; 2; 7; steps - 1; steps; steps + 1 ] @ List.init 7 (fun k -> (k + 1) * steps / 8)));
  if controlled then begin
    let loops = candidates (Proginfo.analyze prog) in
    List.iter2
      (fun f m -> Alcotest.(check string) (name ^ ": controlled under a memory sink") f m)
      (F.controlled prog input loops) (M.controlled prog input loops)
  end;
  Alcotest.(check int) (name ^ ": events a memory sink must not see") 0 !stray_events

let test_memory_sinks () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) -> check_memory bm.bm_name (compile bm.bm_name bm.bm_source) bm.bm_input)
    Dca_progs.Registry.all;
  List.iter (fun (f, src) -> check_memory f (compile f src) []) (corpus ());
  List.iter (fun (name, src, _) -> check_memory name (compile name src) []) trap_programs;
  let root = Dca_support.Prng.create 42 in
  for k = 1 to 200 do
    let g = Dca_gen.Gen_program.generate ~max_iters:4 (Dca_support.Prng.split root) in
    check_memory ~controlled:false (Printf.sprintf "generated #%d" k) (compile "<gen>" g.Dca_gen.Gen_program.g_source) []
  done

let suites =
  [
    ( "eval",
      [
        Alcotest.test_case "registry programs match the reference" `Quick test_registry;
        Alcotest.test_case "corpus programs match the reference" `Quick test_corpus;
        Alcotest.test_case "generated programs match the reference" `Quick test_generated;
        Alcotest.test_case "edge programs match the reference" `Quick test_edges;
        Alcotest.test_case "every budget matches the reference" `Quick test_every_budget;
        Alcotest.test_case "control-only sinks" `Quick test_control_only;
        Alcotest.test_case "memory sinks" `Quick test_memory_sinks;
      ] );
  ]

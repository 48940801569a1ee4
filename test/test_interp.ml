(* End-to-end interpreter tests: compile MiniC, run, inspect outputs and
   state; checkpoint/restore; observable-state capture. *)

open Dca_ir
open Dca_interp

let compile src = Lower.compile ~file:"<test>" src

let run ?input src =
  let p = compile src in
  let ctx = Eval.create ?input p in
  Eval.run_main ctx;
  (ctx, Eval.outputs ctx)

let outputs ?input src = snd (run ?input src)

let test_arith () =
  let out = outputs "void main() { printi(2 + 3 * 4); printi(10 / 3); printi(10 % 3); printi(-7); }" in
  Alcotest.(check (list string)) "ints" [ "14"; "3"; "1"; "-7" ] out

let test_float_math () =
  match outputs "void main() { print(sqrt(2.0)); print(pow(2.0, 10.0)); print(fmax(1.5, -2.0)); }" with
  | [ a; b; c ] ->
      Alcotest.(check (float 1e-9)) "sqrt" (sqrt 2.0) (float_of_string a);
      Alcotest.(check (float 1e-9)) "pow" 1024.0 (float_of_string b);
      Alcotest.(check (float 1e-9)) "fmax" 1.5 (float_of_string c)
  | out -> Alcotest.failf "unexpected output: %s" (String.concat "|" out)

let test_control_flow () =
  let out =
    outputs
      {|
      void main() {
        int total = 0;
        int i;
        for (i = 0; i < 10; i = i + 1) {
          if (i % 2 == 0) { continue; }
          if (i > 7) { break; }
          total = total + i;
        }
        printi(total);  // 1 + 3 + 5 + 7 = 16
      }
      |}
  in
  Alcotest.(check (list string)) "loop" [ "16" ] out

let test_arrays () =
  let out =
    outputs
      {|
      float grid[3][4];
      void main() {
        int i;
        int j;
        for (i = 0; i < 3; i = i + 1) {
          for (j = 0; j < 4; j = j + 1) { grid[i][j] = itof(i * 10 + j); }
        }
        print(grid[2][3]);
        float total = 0.0;
        for (i = 0; i < 3; i = i + 1) {
          for (j = 0; j < 4; j = j + 1) { total = total + grid[i][j]; }
        }
        print(total);
      }
      |}
  in
  Alcotest.(check (list string)) "grid" [ "23"; "138" ] out

let test_plds () =
  let out =
    outputs
      {|
      struct node { int val; struct node *next; }
      void main() {
        struct node *head = null;
        int i;
        for (i = 0; i < 5; i = i + 1) {
          struct node *n = new struct node;
          n->val = i;
          n->next = head;
          head = n;
        }
        int total = 0;
        struct node *p = head;
        while (p) { total = total + p->val; p = p->next; }
        printi(total);  // 0+1+2+3+4
      }
      |}
  in
  Alcotest.(check (list string)) "list sum" [ "10" ] out

let test_functions_recursion () =
  let out =
    outputs
      {|
      int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      void main() { printi(fib(12)); }
      |}
  in
  Alcotest.(check (list string)) "fib" [ "144" ] out

let test_struct_values_in_arrays () =
  let out =
    outputs
      {|
      struct point { float x; float y; }
      struct point pts[4];
      void main() {
        int i;
        for (i = 0; i < 4; i = i + 1) {
          pts[i].x = itof(i);
          pts[i].y = itof(i * i);
        }
        print(pts[3].x + pts[3].y);  // 3 + 9
      }
      |}
  in
  Alcotest.(check (list string)) "aos" [ "12" ] out

let test_globals_and_calls () =
  let out =
    outputs
      {|
      int counter = 100;
      void bump(int by) { counter = counter + by; }
      void main() {
        bump(1);
        bump(2);
        printi(counter);
      }
      |}
  in
  Alcotest.(check (list string)) "globals" [ "103" ] out

let test_drand_deterministic () =
  let src = "void main() { dseed(42); print(drand()); print(drand()); }" in
  Alcotest.(check (list string)) "same seed, same stream" (outputs src) (outputs src)

let test_hrand_pure () =
  let out = outputs "void main() { print(hrand(7)); print(hrand(7)); print(hrand(8)); }" in
  match out with
  | [ a; b; c ] ->
      Alcotest.(check string) "pure" a b;
      Alcotest.(check bool) "distinct" true (a <> c)
  | _ -> Alcotest.fail "expected 3 outputs"

let test_reads_input () =
  let out = outputs ~input:[ 5; 7 ] "void main() { printi(reads() + reads()); printi(reads()); }" in
  Alcotest.(check (list string)) "input stream" [ "12"; "0" ] out

let test_trap_null () =
  let p = compile
      {|
      struct node { int val; struct node *next; }
      void main() { struct node *p = null; p->val = 1; }
      |}
  in
  let ctx = Eval.create p in
  (match Eval.run_main ctx with
  | exception Eval.Trap _ -> ()
  | () -> Alcotest.fail "expected a trap")

let test_trap_out_of_bounds () =
  let p = compile "int a[4]; void main() { int i = 9; a[i] = 1; }" in
  let ctx = Eval.create p in
  (match Eval.run_main ctx with
  | exception Eval.Trap _ -> ()
  | () -> Alcotest.fail "expected a trap")

let test_fuel () =
  let p = compile "void main() { while (1) { } }" in
  (* while(1) has an empty body: only the terminator executes, so give the
     loop something to burn. *)
  ignore p;
  let p = compile "int x; void main() { while (1) { x = x + 1; } }" in
  let ctx = Eval.create ~fuel:10_000 p in
  match Eval.run_main ctx with
  | exception Eval.Out_of_fuel -> ()
  | () -> Alcotest.fail "expected to run out of fuel"

let test_snapshot_restore () =
  let p =
    compile
      {|
      int g;
      int a[4];
      void main() { g = 1; a[0] = 10; }
      |}
  in
  let ctx = Eval.create p in
  Eval.run_main ctx;
  let st = Eval.store ctx in
  let snap = Store.snapshot st in
  (* mutate: globals and heap *)
  Store.write_global st 0 (Value.VInt 999);
  (match Store.read_global st 1 with
  | Value.VPtr (b, _) -> Store.store st ~block:b ~off:0 (Value.VInt 777)
  | _ -> Alcotest.fail "expected array global pointer");
  Store.restore st snap;
  Alcotest.(check bool) "global restored" true (Store.read_global st 0 = Value.VInt 1);
  (match Store.read_global st 1 with
  | Value.VPtr (b, _) ->
      Alcotest.(check bool) "heap restored" true (Store.load st ~block:b ~off:0 = Value.VInt 10)
  | _ -> Alcotest.fail "expected array global pointer")

(* Digests compare under DCA's own tolerance, as the dynamic stage's do. *)
let eps = Dca_core.Commutativity.default_config.Dca_core.Commutativity.cc_eps

let final_store src =
  let ctx = Eval.create (compile src) in
  Eval.run_main ctx;
  Eval.store ctx

(* Captures and comparisons of the state reachable from global 0. *)
let capture_through_global0 st = Observable.capture st ~scalars:[] ~roots:[ Store.read_global st 0 ]

let matches_through_global0 ~golden st =
  Observable.matches ~eps golden st ~scalars:[] ~roots:[ Store.read_global st 0 ]

(* Observable captures: isomorphic heaps must compare equal regardless of
   allocation order. *)
let test_observable_isomorphic () =
  let build order =
    final_store
      (Printf.sprintf
         {|
        struct node { int val; struct node *next; }
        struct node *head;
        void main() {
          %s
        }
        |}
         order)
  in
  (* same final list 1 -> 2, built with different allocation orders *)
  let a =
    build
      {|
      struct node *n1 = new struct node;
      struct node *n2 = new struct node;
      n1->val = 1; n2->val = 2; n1->next = n2; n2->next = null; head = n1;
      |}
  in
  let b =
    build
      {|
      struct node *n2 = new struct node;
      struct node *dead = new struct node;
      struct node *n1 = new struct node;
      dead->val = 99;
      n1->val = 1; n2->val = 2; n1->next = n2; n2->next = null; head = n1;
      |}
  in
  Alcotest.(check bool) "isomorphic heaps equal" true
    (matches_through_global0 ~golden:(capture_through_global0 a) b)

let test_observable_differs () =
  let a = final_store "int a[3]; void main() { a[1] = 5; }" in
  let b = final_store "int a[3]; void main() { a[1] = 6; }" in
  Alcotest.(check bool) "different states differ" false
    (matches_through_global0 ~golden:(capture_through_global0 a) b)

let test_observable_float_tolerance () =
  let st = final_store "void main() { }" in
  let golden = Observable.capture st ~scalars:[ Value.VFloat 1.0 ] ~roots:[] in
  let matches v = Observable.matches ~eps golden st ~scalars:[ Value.VFloat v ] ~roots:[] in
  Alcotest.(check bool) "close floats equal" true (matches (1.0 +. 1e-13));
  Alcotest.(check bool) "distant floats differ" false (matches 1.1)

(* [Observable.matches] on isomorphic heaps (canonical renaming) as well
   as genuinely different states. *)
let test_observable_matches () =
  let list_src order =
    Printf.sprintf
      {|
      struct node { int val; struct node *next; }
      struct node *head;
      void main() { %s }
      |}
      order
  in
  let a =
    final_store
      (list_src
         {|
         struct node *n1 = new struct node;
         struct node *n2 = new struct node;
         n1->val = 1; n2->val = 2; n1->next = n2; n2->next = null; head = n1;
         |})
  in
  let b =
    final_store
      (list_src
         {|
         struct node *n2 = new struct node;
         struct node *dead = new struct node;
         struct node *n1 = new struct node;
         dead->val = 99;
         n1->val = 1; n2->val = 2; n1->next = n2; n2->next = null; head = n1;
         |})
  in
  let golden = capture_through_global0 a in
  Alcotest.(check bool) "matches self" true (matches_through_global0 ~golden a);
  Alcotest.(check bool) "matches isomorphic heap" true (matches_through_global0 ~golden b);
  (match Store.read_global b 0 with
  | Value.VPtr (blk, _) -> Store.store b ~block:blk ~off:0 (Value.VInt 42)
  | _ -> Alcotest.fail "expected pointer global");
  Alcotest.(check bool) "mutated heap differs" false (matches_through_global0 ~golden b)

(* Property: on random array states, [matches] decides like the
   cell-based reference (test/observable_ref.ml), in place and by capture
   then [equal] (both verdicts, not just the positive case). *)
let prop_matches_agrees_with_equal =
  QCheck.Test.make ~count:200 ~name:"Observable.matches = capture+equal"
    QCheck.(pair (list (int_range 0 7)) (list (int_range 0 7)))
    (fun (pokes_a, pokes_b) ->
      let mk pokes =
        let st = final_store "int a[8]; int total; void main() { }" in
        (match Store.read_global st 0 with
        | Value.VPtr (blk, _) ->
            List.iteri (fun i off -> Store.store st ~block:blk ~off (Value.VInt (i + off))) pokes
        | _ -> failwith "expected array global");
        st
      in
      let liveout st = ([ Store.read_global st 1 ], [ Store.read_global st 0 ]) in
      let sa = mk pokes_a and sb = mk pokes_b in
      let (sc_a, rt_a), (sc_b, rt_b) = (liveout sa, liveout sb) in
      let golden = Observable.capture sa ~scalars:sc_a ~roots:rt_a in
      let verdict = Observable.matches ~eps golden sb ~scalars:sc_b ~roots:rt_b in
      let ref_golden = Observable_ref.capture sa ~scalars:sc_a ~roots:rt_a in
      verdict = Observable_ref.matches ~eps ref_golden sb ~scalars:sc_b ~roots:rt_b
      && verdict
         = Observable_ref.equal ~eps ref_golden (Observable_ref.capture sb ~scalars:sc_b ~roots:rt_b))

let test_outputs_equal_tolerant () =
  Alcotest.(check bool) "tolerant" true
    (Observable.outputs_equal ~eps [ "1.00000000000001"; "x" ] [ "1.0"; "x" ]);
  Alcotest.(check bool) "different text" false (Observable.outputs_equal ~eps [ "a" ] [ "b" ]);
  Alcotest.(check bool) "different lengths" false (Observable.outputs_equal ~eps [ "1" ] [ "1"; "2" ])

(* A plain run allocates little more than the values it computes: at
   most 4 minor words per executed instruction — a boxed int result is 2
   words, a float 4 — with the program's code compiled beforehand. *)
let test_minor_words_per_step () =
  List.iter
    (fun name ->
      let bm = Dca_progs.Registry.find_exn name in
      let p = Lower.compile ~file:name bm.Dca_progs.Benchmark.bm_source in
      ignore (Eval.create p);
      let words0 = Gc.minor_words () in
      let ctx = Eval.create ~input:bm.Dca_progs.Benchmark.bm_input p in
      Eval.run_main ctx;
      let per_step = (Gc.minor_words () -. words0) /. float_of_int (Eval.steps ctx) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per step" name per_step)
        true (per_step <= 4.0))
    [ "LU"; "mst" ]

let suites =
  [
    ( "interp",
      [
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "float math" `Quick test_float_math;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "plds" `Quick test_plds;
        Alcotest.test_case "recursion" `Quick test_functions_recursion;
        Alcotest.test_case "struct arrays" `Quick test_struct_values_in_arrays;
        Alcotest.test_case "globals" `Quick test_globals_and_calls;
        Alcotest.test_case "drand deterministic" `Quick test_drand_deterministic;
        Alcotest.test_case "hrand pure" `Quick test_hrand_pure;
        Alcotest.test_case "reads input" `Quick test_reads_input;
        Alcotest.test_case "trap null" `Quick test_trap_null;
        Alcotest.test_case "trap oob" `Quick test_trap_out_of_bounds;
        Alcotest.test_case "fuel" `Quick test_fuel;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "no allocation per plain step" `Quick test_minor_words_per_step;
      ] );
    ( "observable",
      [
        Alcotest.test_case "isomorphic heaps" `Quick test_observable_isomorphic;
        Alcotest.test_case "state diff" `Quick test_observable_differs;
        Alcotest.test_case "float tolerance" `Quick test_observable_float_tolerance;
        Alcotest.test_case "in-place matches" `Quick test_observable_matches;
        QCheck_alcotest.to_alcotest prop_matches_agrees_with_equal;
        Alcotest.test_case "outputs tolerant" `Quick test_outputs_equal_tolerant;
      ] );
  ]

(* ---------------------------------------------------------------- *)
(* Additional interpreter edge cases                                  *)
(* ---------------------------------------------------------------- *)

let test_deep_recursion () =
  let out =
    outputs
      {|
      int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
      void main() { printi(depth(500)); }
      |}
  in
  Alcotest.(check (list string)) "deep recursion" [ "500" ] out

let test_zero_length_alloc () =
  let out =
    outputs
      {|
      void main() {
        int *p = new int[0];
        if (p) { printi(1); } else { printi(0); }
      }
      |}
  in
  Alcotest.(check (list string)) "zero-length allocation yields a valid pointer" [ "1" ] out

let test_div_by_zero_traps () =
  let p = compile "void main() { int z = 0; printi(10 / z); }" in
  let ctx = Eval.create p in
  (match Eval.run_main ctx with
  | exception Eval.Trap _ -> ()
  | () -> Alcotest.fail "expected a trap")

let test_mod_by_zero_traps () =
  let p = compile "void main() { int z = 0; printi(10 % z); }" in
  let ctx = Eval.create p in
  (match Eval.run_main ctx with
  | exception Eval.Trap _ -> ()
  | () -> Alcotest.fail "expected a trap")

let test_uninitialized_use_traps () =
  let p = compile "void main() { int x; printi(x + 1); }" in
  let ctx = Eval.create p in
  (match Eval.run_main ctx with
  | exception Eval.Trap _ -> ()
  | () -> Alcotest.fail "expected a trap")

let test_negative_modulo_semantics () =
  (* OCaml's [mod] semantics: sign follows the dividend, like C *)
  let out = outputs "void main() { printi(-7 % 3); printi(7 % -3); }" in
  Alcotest.(check (list string)) "C-style remainder" [ "-1"; "1" ] out

let test_short_circuit_effects () =
  let out =
    outputs
      {|
      int calls;
      int noisy(int v) { calls = calls + 1; return v; }
      void main() {
        calls = 0;
        if (noisy(0) != 0 && noisy(1) != 0) { printi(99); }
        printi(calls);          // 1: the second operand must not run
        if (noisy(1) != 0 || noisy(1) != 0) { printi(7); }
        printi(calls);          // 2: short-circuit or
      }
      |}
  in
  Alcotest.(check (list string)) "short circuit" [ "1"; "7"; "2" ] out

let test_pointer_equality () =
  let out =
    outputs
      {|
      struct cell { int v; struct cell *next; }
      void main() {
        struct cell *a = new struct cell;
        struct cell *b = new struct cell;
        struct cell *c = a;
        if (a == c) { printi(1); } else { printi(0); }
        if (a == b) { printi(1); } else { printi(0); }
        if (a != null) { printi(1); } else { printi(0); }
      }
      |}
  in
  Alcotest.(check (list string)) "pointer identity" [ "1"; "0"; "1" ] out

let test_struct_value_copy_semantics () =
  (* struct values live in place; assignments go field by field *)
  let out =
    outputs
      {|
      struct pt { float x; float y; }
      struct pt grid[2];
      void main() {
        grid[0].x = 1.0;
        grid[1].x = grid[0].x + 1.0;
        grid[0].x = 9.0;
        print(grid[1].x);   // copied before the overwrite
      }
      |}
  in
  Alcotest.(check (list string)) "field copies" [ "2" ] out

let test_steps_counter_monotone () =
  let p = compile "void main() { int i; int s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } printi(s); }" in
  let ctx = Eval.create p in
  Eval.run_main ctx;
  let small = Eval.steps ctx in
  let p2 = compile "void main() { int i; int s = 0; for (i = 0; i < 500; i = i + 1) { s = s + i; } printi(s); }" in
  let ctx2 = Eval.create p2 in
  Eval.run_main ctx2;
  Alcotest.(check bool) "10x iterations cost more" true (Eval.steps ctx2 > small * 5)

let extra_suites =
  [
    ( "interp-edge",
      [
        Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
        Alcotest.test_case "zero-length alloc" `Quick test_zero_length_alloc;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_traps;
        Alcotest.test_case "mod by zero" `Quick test_mod_by_zero_traps;
        Alcotest.test_case "uninitialized use" `Quick test_uninitialized_use_traps;
        Alcotest.test_case "negative modulo" `Quick test_negative_modulo_semantics;
        Alcotest.test_case "short circuit effects" `Quick test_short_circuit_effects;
        Alcotest.test_case "pointer equality" `Quick test_pointer_equality;
        Alcotest.test_case "struct field copies" `Quick test_struct_value_copy_semantics;
        Alcotest.test_case "steps monotone" `Quick test_steps_counter_monotone;
      ] );
  ]

(* ---------------------------------------------------------------- *)
(* Checkpointing: journal/COW vs deep-copy oracle                     *)
(* ---------------------------------------------------------------- *)

(* The journal store (write barrier + undo journal, COW forks) and the
   deep store (eager heap duplication) implement the same contract.  The
   properties below drive one of each through the same random interleaving
   of allocations, stores, global writes, snapshots, restores (to random
   stack depths), releases and forks — and require the two to agree on
   every observable at the end, including on every fork taken along the
   way (a fork diverging from its deep twin means state leaked between
   parent and replica through a shared cells array). *)

let checkpoint_program =
  lazy (compile "int g0; int g1; float gf; int arr[3]; void main() { }")

let mk_store mode =
  Store.create ~mode (Lazy.force checkpoint_program) ~input:[ 3; 1; 4; 1; 5 ]

let n_global_slots = 4

let stores_agree sj sd =
  let agree = ref (Store.heap_blocks sj = Store.heap_blocks sd) in
  for b = 0 to Store.heap_blocks sj - 1 do
    if Store.block_cells sj b <> Store.block_cells sd b then agree := false
  done;
  for slot = 0 to n_global_slots - 1 do
    if Store.read_global sj slot <> Store.read_global sd slot then agree := false
  done;
  if Store.outputs sj <> Store.outputs sd then agree := false;
  (* same rng / input-cursor position: the next draws must coincide *)
  if Store.drand sj <> Store.drand sd then agree := false;
  if Store.read_input sj <> Store.read_input sd then agree := false;
  !agree

(* Decode one op from an integer and apply it to both stores.  Every
   choice is derived from the code and the (identical) current state, so
   the two stores always see the same operation. *)
let apply_op sj sd stack copies code =
  let both f =
    f sj;
    f sd
  in
  let n = Store.heap_blocks sj in
  let value c =
    match (c / 7) mod 4 with
    | 0 -> Value.VFloat (float_of_int (c mod 17) /. 3.0)
    | 1 -> if n > 0 then Value.VPtr (c mod n, 0) else Value.VNull
    | _ -> Value.VInt (c mod 1000)
  in
  match code mod 10 with
  | 0 | 1 | 2 ->
      if n > 0 then begin
        let b = code / 10 mod n in
        match Store.block_size sj b with
        | Some sz when sz > 0 ->
            let off = code / 100 mod sz in
            let v = value (code / 1000) in
            both (fun s -> Store.store s ~block:b ~off v)
        | _ -> ()
      end
  | 3 ->
      let slot = code / 10 mod n_global_slots in
      let v = value (code / 100) in
      both (fun s -> Store.write_global s slot v)
  | 4 ->
      let count = 1 + (code / 10 mod 3) in
      both (fun s -> ignore (Store.alloc s [| Layout.KInt |] ~count : int))
  | 5 -> stack := (Store.snapshot sj, Store.snapshot sd) :: !stack
  | 6 -> (
      (* restore a random live snapshot; the ones taken after it are
         invalidated and must only be released *)
      match !stack with
      | [] -> ()
      | live ->
          let k = code / 10 mod List.length live in
          let rec split i acc = function
            | x :: rest when i < k -> split (i + 1) (x :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let above, keep = split 0 [] live in
          let mj, md = List.hd keep in
          Store.restore sj mj;
          Store.restore sd md;
          List.iter
            (fun (aj, ad) ->
              Store.release sj aj;
              Store.release sd ad)
            above;
          stack := keep)
  | 7 -> (
      match !stack with
      | (mj, md) :: rest ->
          Store.release sj mj;
          Store.release sd md;
          stack := rest
      | [] -> ())
  | 8 ->
      (* fork both stores; dirty the forks identically so COW privatizes
         in the replica direction too *)
      let cj = Store.copy sj and cd = Store.copy sd in
      (match Store.block_size cj 0 with
      | Some sz when sz > 0 ->
          Store.store cj ~block:0 ~off:0 (Value.VInt code);
          Store.store cd ~block:0 ~off:0 (Value.VInt code)
      | _ -> ());
      Store.write_global cj 0 (Value.VInt (code + 1));
      Store.write_global cd 0 (Value.VInt (code + 1));
      copies := (cj, cd) :: !copies
  | _ -> (
      match code / 10 mod 3 with
      | 0 -> both (fun s -> ignore (Store.drand s : float))
      | 1 -> both (fun s -> ignore (Store.read_input s : int))
      | _ -> both (fun s -> Store.print_string_ s (string_of_int (code mod 50))))

let prop_journal_matches_deep =
  QCheck.Test.make ~count:300 ~name:"journal/COW store agrees with deep-copy oracle"
    QCheck.(list (int_range 0 999_999))
    (fun codes ->
      let sj = mk_store Store.Journal and sd = mk_store Store.Deep in
      let stack = ref [] and copies = ref [] in
      List.iter (apply_op sj sd stack copies) codes;
      stores_agree sj sd
      && List.for_all (fun (cj, cd) -> stores_agree cj cd) !copies)

let prop_restore_round_trip =
  QCheck.Test.make ~count:300 ~name:"snapshot/mutate/restore round-trips in both modes"
    QCheck.(pair (list (int_range 0 999_999)) (list (int_range 0 999_999)))
    (fun (pre, post) ->
      (* only non-checkpoint ops: keep the snapshot stack in this test's hands *)
      let mutation_only c = match c mod 10 with 5 | 6 | 7 | 8 -> false | _ -> true in
      let pre = List.filter mutation_only pre and post = List.filter mutation_only post in
      let sj = mk_store Store.Journal and sd = mk_store Store.Deep in
      let stack = ref [] and copies = ref [] in
      List.iter (apply_op sj sd stack copies) pre;
      let mj = Store.snapshot sj and md = Store.snapshot sd in
      List.iter (apply_op sj sd stack copies) post;
      Store.restore sj mj;
      Store.restore sd md;
      let first = stores_agree sj sd in
      (* a snapshot survives repeated restores: mutate and rewind again *)
      List.iter (apply_op sj sd stack copies) post;
      Store.restore sj mj;
      Store.restore sd md;
      Store.release sj mj;
      Store.release sd md;
      first && stores_agree sj sd)

(* Pointers into blocks allocated after the snapshot dangle once restored;
   Observable.capture canonicalizes them to VUndef, so a digest taken
   through a dangling pointer matches the state seen through VUndef, and
   the other way round. *)
let test_dangling_canonicalizes () =
  List.iter
    (fun mode ->
      let st = mk_store mode in
      let snap = Store.snapshot st in
      let b = Store.alloc st [| Layout.KInt |] ~count:2 in
      Store.write_global st 0 (Value.VPtr (b, 0));
      Store.restore st snap;
      Store.release st snap;
      let dangling = Value.VPtr (b, 0) in
      Alcotest.(check bool) "block dangles" true (Store.block_size st b = None);
      let obs = Observable.capture st ~scalars:[ dangling ] ~roots:[] in
      let undef = Observable.capture st ~scalars:[ Value.VUndef ] ~roots:[] in
      Alcotest.(check bool) "dangling pointer digests as undef" true
        (Observable.matches ~eps obs st ~scalars:[ Value.VUndef ] ~roots:[]);
      (* the cell-based reference decides the same, for in-place matches
         in either direction *)
      let ref_obs = Observable_ref.capture st ~scalars:[ dangling ] ~roots:[] in
      let ref_undef = Observable_ref.capture st ~scalars:[ Value.VUndef ] ~roots:[] in
      List.iter
        (fun (what, (got : bool), (want : bool)) -> Alcotest.(check bool) ("reference: " ^ what) want got)
        [
          ( "dangling matches undef",
            Observable.matches ~eps obs st ~scalars:[ Value.VUndef ] ~roots:[],
            Observable_ref.matches ~eps ref_obs st ~scalars:[ Value.VUndef ] ~roots:[] );
          ( "undef matches dangling",
            Observable.matches ~eps undef st ~scalars:[ dangling ] ~roots:[],
            Observable_ref.matches ~eps ref_undef st ~scalars:[ dangling ] ~roots:[] );
        ])
    [ Store.Journal; Store.Deep ]

(* The box-sharing digest against the cell-based reference
   (test/observable_ref.ml) on random stores — ints, floats, pointers,
   and pointers left dangling by restores: both [matches] decide the
   same, each capture against either store.  A capture is also matched
   against its own store after further mutation, where every cell the
   mutation did not write is still the very box the capture holds. *)
let prop_digest_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Observable = Observable_ref on random stores"
    QCheck.(
      triple (list (int_range 0 999_999)) (list (int_range 0 999_999)) (list (int_range 0 999_999)))
    (fun (common, extra_a, extra_b) ->
      let build ops =
        let st = mk_store Store.Journal and twin = mk_store Store.Journal in
        let stack = ref [] and copies = ref [] in
        List.iter (apply_op st twin stack copies) ops;
        (st, twin)
      in
      let scalars st = List.init 3 (Store.read_global st) and roots st = [ Store.read_global st 3 ] in
      let capture st = Observable.capture st ~scalars:(scalars st) ~roots:(roots st) in
      let ref_capture st = Observable_ref.capture st ~scalars:(scalars st) ~roots:(roots st) in
      let (sa, twin_a), (sb, _) = (build (common @ extra_a), build (common @ extra_b)) in
      let ga = capture sa and gb = capture sb and ra = ref_capture sa and rb = ref_capture sb in
      let matches g st = Observable.matches ~eps g st ~scalars:(scalars st) ~roots:(roots st) in
      let ref_matches r st = Observable_ref.matches ~eps r st ~scalars:(scalars st) ~roots:(roots st) in
      let agree =
        matches ga sb = ref_matches ra sb
        && matches gb sa = ref_matches rb sa
        && matches ga sa = ref_matches ra sa
      in
      let stack = ref [] and copies = ref [] in
      List.iter (apply_op sa twin_a stack copies) extra_b;
      agree && matches ga sa = ref_matches ra sa)

(* Float tolerance, the box-sharing digest against the reference: close,
   distant, signed zeros, infinities and NaN, in a block and as a scalar,
   at two tolerances — in place against the reference's capture and
   [equal] and its in-place [matches], where a NaN cell that neither run
   wrote is the same box and must still differ from itself. *)
let test_digest_eps_matches_reference () =
  let values = [ 1.0; 1.0 +. 1e-13; 1.0 +. 1e-7; 1.1; 0.0; -0.0; infinity; nan ] in
  let store_with v =
    let st = mk_store Store.Journal in
    (match Store.read_global st 3 with
    | Value.VPtr (b, _) -> Store.store st ~block:b ~off:1 (Value.VFloat v)
    | _ -> Alcotest.fail "expected the array global");
    st
  in
  let roots st = [ Store.read_global st 3 ] in
  List.iter
    (fun eps ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let sx = store_with x and sy = store_with y in
              (* one box per scalar list: matching [sx] against its own
                 capture with [scx] meets the very boxes captured *)
              let scx = [ Value.VFloat x ] and scy = [ Value.VFloat y ] in
              let g = Observable.capture sx ~scalars:scx ~roots:(roots sx) in
              let r = Observable_ref.capture sx ~scalars:scx ~roots:(roots sx) in
              let name = Printf.sprintf "eps %g: %h vs %h" eps x y in
              Alcotest.(check bool) (name ^ ", equal")
                (Observable_ref.equal ~eps r (Observable_ref.capture sy ~scalars:scy ~roots:(roots sy)))
                (Observable.matches ~eps g sy ~scalars:scy ~roots:(roots sy));
              Alcotest.(check bool) (name ^ ", matches")
                (Observable_ref.matches ~eps r sy ~scalars:scy ~roots:(roots sy))
                (Observable.matches ~eps g sy ~scalars:scy ~roots:(roots sy));
              List.iter
                (fun (what, scalars) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s, matches its own store (%s)" name what)
                    (Observable_ref.matches ~eps r sx ~scalars ~roots:(roots sx))
                    (Observable.matches ~eps g sx ~scalars ~roots:(roots sx)))
                [ ("same scalar box", scx); ("a copy of the scalar", [ Value.VFloat x ]) ];
              (* the block alone, where the cell is the captured box *)
              Alcotest.(check bool) (name ^ ", a block matches its own store")
                (Observable_ref.matches ~eps
                   (Observable_ref.capture sx ~scalars:[] ~roots:(roots sx))
                   sx ~scalars:[] ~roots:(roots sx))
                (Observable.matches ~eps (Observable.capture sx ~scalars:[] ~roots:(roots sx)) sx ~scalars:[]
                   ~roots:(roots sx)))
            values)
        values)
    [ 1e-9; 1e-6 ]

let test_stale_snapshot_rejected () =
  let st = mk_store Store.Journal in
  let outer = Store.snapshot st in
  Store.write_global st 0 (Value.VInt 1);
  let inner = Store.snapshot st in
  Store.write_global st 0 (Value.VInt 2);
  Store.restore st outer;
  (match Store.restore st inner with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "restoring an invalidated snapshot must raise");
  let released = Store.snapshot st in
  Store.release st released;
  Store.release st released;
  (* idempotent *)
  match Store.restore st released with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "restoring a released snapshot must raise"

let checkpoint_suites =
  [
    ( "checkpoint",
      [
        QCheck_alcotest.to_alcotest prop_journal_matches_deep;
        QCheck_alcotest.to_alcotest prop_restore_round_trip;
        Alcotest.test_case "dangling canonicalizes" `Quick test_dangling_canonicalizes;
        QCheck_alcotest.to_alcotest prop_digest_matches_reference;
        Alcotest.test_case "digest tolerance matches the reference" `Quick test_digest_eps_matches_reference;
        Alcotest.test_case "stale/released rejected" `Quick test_stale_snapshot_rejected;
      ] );
  ]

let suites = suites @ extra_suites @ checkpoint_suites

(* Unit and property tests for the static analyses: dominance, loop
   forest, liveness, PDG/control dependence, purity, affine recognition,
   dependence tests, scalar classification, memory-reduction patterns. *)

open Dca_support
open Dca_frontend
open Dca_ir
open Dca_analysis

let compile src = Lower.compile ~file:"<test>" src
let info_of src = Proginfo.analyze (compile src)

let fi info name = Proginfo.func_info info name

(* --------------------------------------------------------------- *)
(* Dominance                                                         *)
(* --------------------------------------------------------------- *)

let diamond_src =
  {|
  void main() {
    int x = reads();
    int y;
    if (x > 0) { y = 1; } else { y = 2; }
    printi(y);
  }
  |}

let test_dominance_diamond () =
  let info = info_of diamond_src in
  let cfg = (fi info "main").Proginfo.fi_cfg in
  let dom = Dominance.of_cfg cfg in
  let entry = Cfg.entry cfg in
  List.iter
    (fun b -> Alcotest.(check bool) (Printf.sprintf "entry dominates b%d" b) true (Dominance.dominates dom entry b))
    (Cfg.reverse_postorder cfg);
  (* the join block is dominated by the branch block but by neither arm *)
  let branch = entry in
  let join =
    List.find
      (fun b -> List.length (Cfg.preds cfg b) = 2)
      (Cfg.reverse_postorder cfg)
  in
  Alcotest.(check bool) "branch dominates join" true (Dominance.dominates dom branch join);
  let arms = Cfg.preds cfg join in
  List.iter
    (fun arm ->
      if arm <> branch then
        Alcotest.(check bool) "arm does not dominate join" false (Dominance.dominates dom arm join))
    arms

let test_dominance_loop_header () =
  let info = info_of "void main() { int i = 0; while (i < 5) { i = i + 1; } printi(i); }" in
  let f = fi info "main" in
  let cfg = f.Proginfo.fi_cfg in
  let dom = Dominance.of_cfg cfg in
  match Loops.loops f.Proginfo.fi_forest with
  | [ l ] ->
      Intset.iter
        (fun b ->
          Alcotest.(check bool) "header dominates body" true
            (Dominance.dominates dom l.Loops.l_header b))
        l.Loops.l_blocks
  | _ -> Alcotest.fail "expected one loop"

(* Property: on random structured programs, the dominator of every block's
   idom is an ancestor through which all paths pass — checked indirectly:
   idom is always a strict dominator and is itself dominated by the entry. *)
let gen_structured_program =
  let open QCheck.Gen in
  let rec gen_stmts depth n =
    if n <= 0 then return []
    else
      let* k = int_range 1 3 in
      let* stmt =
        if depth > 2 then return "x = x + 1;"
        else
          oneofl
            [
              "x = x + 1;";
              "if (x % 2 == 0) { x = x + 3; } else { x = x - 1; }";
              "while (x > 90) { x = x - 7; }";
              "for (y = 0; y < 3; y = y + 1) { x = x + y; }";
            ]
      in
      let* nested =
        if depth < 2 && stmt = "if (x % 2 == 0) { x = x + 3; } else { x = x - 1; }" then
          let* inner = gen_stmts (depth + 1) (n / 2) in
          return (Printf.sprintf "if (x > 10) { %s }" (String.concat " " inner))
        else return stmt
      in
      let* rest = gen_stmts depth (n - k) in
      return (nested :: rest)
  in
  let* body = gen_stmts 0 8 in
  return
    (Printf.sprintf "void main() { int x = 100; int y; %s printi(x); }" (String.concat "\n" body))

let prop_dominance_random =
  QCheck.Test.make ~count:60 ~name:"idom is a strict dominator on random programs"
    (QCheck.make gen_structured_program ~print:(fun s -> s))
    (fun src ->
      let info = info_of src in
      let cfg = (fi info "main").Proginfo.fi_cfg in
      let dom = Dominance.of_cfg cfg in
      List.for_all
        (fun b ->
          match Dominance.idom dom b with
          | None -> b = Cfg.entry cfg
          | Some d -> d <> b && Dominance.dominates dom d b)
        (Cfg.reverse_postorder cfg))

let prop_loops_well_formed =
  QCheck.Test.make ~count:60 ~name:"loop forest invariants on random programs"
    (QCheck.make gen_structured_program ~print:(fun s -> s))
    (fun src ->
      let info = info_of src in
      let f = fi info "main" in
      let forest = f.Proginfo.fi_forest in
      List.for_all
        (fun l ->
          Intset.mem l.Loops.l_header l.Loops.l_blocks
          && l.Loops.l_latches <> []
          && List.for_all (fun latch -> Intset.mem latch l.Loops.l_blocks) l.Loops.l_latches
          && List.for_all
               (fun (src_b, dst) ->
                 Intset.mem src_b l.Loops.l_blocks && not (Intset.mem dst l.Loops.l_blocks))
               l.Loops.l_exiting
          &&
          (* parent strictly contains child *)
          match l.Loops.l_parent with
          | None -> l.Loops.l_depth = 1
          | Some pid -> (
              match Loops.find forest pid with
              | Some p ->
                  Intset.subset l.Loops.l_blocks p.Loops.l_blocks
                  && p.Loops.l_depth = l.Loops.l_depth - 1
              | None -> false))
        (Loops.loops forest))

(* --------------------------------------------------------------- *)
(* Loops                                                             *)
(* --------------------------------------------------------------- *)

let test_loop_nesting () =
  let info =
    info_of
      {|
      void main() {
        int i;
        int j;
        int x = 0;
        for (i = 0; i < 3; i = i + 1) {
          for (j = 0; j < 3; j = j + 1) { x = x + i * j; }
        }
        while (x > 0) { x = x - 1; }
        printi(x);
      }
      |}
  in
  let forest = (fi info "main").Proginfo.fi_forest in
  let loops = Loops.loops forest in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  let depths = List.map (fun l -> l.Loops.l_depth) loops |> List.sort compare in
  Alcotest.(check (list int)) "depths" [ 1; 1; 2 ] depths;
  let inner = List.find (fun l -> l.Loops.l_depth = 2) loops in
  let outer = List.find (fun l -> l.Loops.l_children <> []) loops in
  Alcotest.(check (option string)) "parent link" (Some outer.Loops.l_id) inner.Loops.l_parent;
  Alcotest.(check (list string)) "child link" [ inner.Loops.l_id ] outer.Loops.l_children

let test_innermost_containing () =
  let info =
    info_of
      "void main() { int i; int j; int x = 0; for (i = 0; i < 2; i = i + 1) { for (j = 0; j < 2; j = j + 1) { x = x + 1; } } printi(x); }"
  in
  let f = fi info "main" in
  let forest = f.Proginfo.fi_forest in
  let inner = List.find (fun l -> l.Loops.l_depth = 2) (Loops.loops forest) in
  Intset.iter
    (fun b ->
      match Loops.innermost_containing forest b with
      | Some l -> Alcotest.(check string) "innermost" inner.Loops.l_id l.Loops.l_id
      | None -> Alcotest.fail "block should be in a loop")
    inner.Loops.l_blocks

(* The array lookups agree with the loops' block sets and headers, for
   every block id of every function and one id past each end. *)
let check_lookups name (prog : Ir.program) =
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.of_func f in
      let forest = Loops.analyze cfg in
      let loops = Loops.loops forest in
      for b = -1 to Cfg.nblocks cfg do
        List.iter
          (fun l ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s contains b%d" name l.Loops.l_id b)
              (Intset.mem b l.Loops.l_blocks) (Loops.contains_block l b))
          loops;
        let heads = List.find_opt (fun l -> l.Loops.l_header = b) loops in
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s, loop headed by b%d" name f.Ir.fname b)
          (Option.map (fun l -> l.Loops.l_id) heads)
          (Option.map (fun l -> l.Loops.l_id) (Loops.loop_of_header forest b));
        match (heads, Loops.loop_of_header forest b) with
        | Some l, Some l' -> Alcotest.(check bool) "the forest's own loop" true (l == l')
        | _ -> ()
      done)
    prog.Ir.p_funcs

let test_loop_lookups () =
  List.iter
    (fun (bm : Dca_progs.Benchmark.t) -> check_lookups bm.bm_name (Dca_progs.Benchmark.compile bm))
    Dca_progs.Registry.all;
  let root = Prng.create 42 in
  for k = 1 to 200 do
    let g = Dca_gen.Gen_program.generate ~max_iters:4 (Prng.split root) in
    check_lookups (Printf.sprintf "generated #%d" k) (compile g.Dca_gen.Gen_program.g_source)
  done

(* --------------------------------------------------------------- *)
(* Liveness                                                          *)
(* --------------------------------------------------------------- *)

let test_liveness_loop_live_out () =
  let info =
    info_of
      {|
      void main() {
        int i;
        int acc = 0;
        int dead = 0;
        for (i = 0; i < 10; i = i + 1) {
          acc = acc + i;
          dead = dead + 2;
        }
        printi(acc);
      }
      |}
  in
  let f = fi info "main" in
  match Loops.loops f.Proginfo.fi_forest with
  | [ l ] ->
      let live_out = Liveness.loop_live_out (Proginfo.live f) l in
      let names =
        Intset.elements live_out
        |> List.filter_map (fun vid -> Liveness.var_of_id (Proginfo.live f) vid)
        |> List.map (fun v -> v.Ir.vname)
      in
      Alcotest.(check bool) "acc live out" true (List.mem "acc" names);
      Alcotest.(check bool) "dead not live out" false (List.mem "dead" names)
  | _ -> Alcotest.fail "expected one loop"

let test_liveness_straightline () =
  let info = info_of "void main() { int a = 1; int b = a + 2; int c = b * b; printi(c); }" in
  let f = fi info "main" in
  let live = Liveness.live_in (Proginfo.live f) (Cfg.entry f.Proginfo.fi_cfg) in
  Alcotest.(check bool) "nothing live at entry" true (Intset.is_empty live)

(* --------------------------------------------------------------- *)
(* PDG / control dependence                                          *)
(* --------------------------------------------------------------- *)

let test_control_dependence () =
  let info =
    info_of
      {|
      void main() {
        int x = reads();
        int y = 0;
        if (x > 0) { y = 1; }
        printi(y);
      }
      |}
  in
  let f = fi info "main" in
  let cfg = f.Proginfo.fi_cfg in
  (* the then-arm is control dependent on the entry block's branch *)
  let then_block =
    List.find
      (fun b -> b <> Cfg.entry cfg && List.length (Cfg.succs cfg b) = 1 && Cfg.preds cfg b = [ Cfg.entry cfg ])
      (Cfg.reverse_postorder cfg)
  in
  let parents = Pdg.control_parents (Proginfo.pdg f) then_block in
  Alcotest.(check (list int)) "controlled by entry" [ Cfg.entry cfg ] parents

let test_backward_slice_for_loop () =
  let info =
    info_of
      "int a[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; } printi(a[3]); }"
  in
  let f = fi info "main" in
  match Loops.loops f.Proginfo.fi_forest with
  | [ l ] ->
      let pdg = Proginfo.pdg f in
      let within n = Intset.mem (Pdg.node_block pdg n) l.Loops.l_blocks in
      let seeds = List.map (fun (src, _) -> Pdg.Term src) l.Loops.l_exiting in
      let slice = Pdg.backward_closure pdg ~within seeds in
      (* slice contains the iterator update (Mov i) but not the store *)
      let slice_iids =
        Pdg.Nodeset.fold
          (fun n acc -> match n with Pdg.Instr i -> i :: acc | Pdg.Term _ -> acc)
          slice []
      in
      let has pred =
        List.exists (fun iid -> pred (Pdg.instr pdg iid).Ir.idesc) slice_iids
      in
      Alcotest.(check bool) "slice updates i" true
        (has (function Ir.Mov (v, _) -> v.Ir.vname = "i" | _ -> false));
      Alcotest.(check bool) "slice has no store" false (has (function Ir.Store _ -> true | _ -> false))
  | _ -> Alcotest.fail "expected one loop"

(* --------------------------------------------------------------- *)
(* Purity                                                            *)
(* --------------------------------------------------------------- *)

let test_purity () =
  let info =
    info_of
      {|
      int g;
      int pure_add(int a, int b) { return a + b; }
      int reads_global(int a) { return a + g; }
      void writes_global(int a) { g = a; }
      void prints_stuff() { printi(g); }
      int recursive(int n) { if (n <= 0) { return 0; } return recursive(n - 1) + 1; }
      void main() { g = pure_add(reads_global(1), recursive(3)); writes_global(2); prints_stuff(); }
      |}
  in
  let pur = Proginfo.purity info in
  Alcotest.(check bool) "pure_add pure" true (Purity.pure pur "pure_add");
  Alcotest.(check bool) "reads_global pure (read-only)" true (Purity.pure pur "reads_global");
  Alcotest.(check bool) "writes_global impure" false (Purity.pure pur "writes_global");
  Alcotest.(check bool) "prints_stuff does io" false (Purity.io_free pur "prints_stuff");
  Alcotest.(check bool) "recursive pure" true (Purity.pure pur "recursive");
  Alcotest.(check bool) "sqrt builtin pure" true (Purity.pure pur "sqrt");
  Alcotest.(check bool) "drand impure" false (Purity.pure pur "drand");
  Alcotest.(check bool) "unknown is impure" false (Purity.pure pur "no_such_function")

(* --------------------------------------------------------------- *)
(* Affine                                                            *)
(* --------------------------------------------------------------- *)

let single_loop_env src =
  let info = info_of src in
  let f = fi info "main" in
  match Loops.loops f.Proginfo.fi_forest with
  | l :: _ -> (f, l)
  | [] -> Alcotest.fail "expected a loop"

let test_affine_induction () =
  let f, l = single_loop_env "int a[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = 1; } }" in
  match Affine.induction_var (Proginfo.affine f) l with
  | Some (v, step) ->
      Alcotest.(check string) "iv" "i" v.Ir.vname;
      Alcotest.(check int) "step" 1 step
  | None -> Alcotest.fail "no induction variable found"

let test_affine_downward () =
  let f, l = single_loop_env "int a[8]; void main() { int i; for (i = 7; i >= 0; i = i - 1) { a[i] = 1; } }" in
  match Affine.induction_var (Proginfo.affine f) l with
  | Some (_, step) -> Alcotest.(check int) "negative step" (-1) step
  | None -> Alcotest.fail "no induction variable found"

let test_counted_header_global_bound () =
  let f, l = single_loop_env "int n; int a[8]; void main() { n = 8; int i; for (i = 0; i < n; i = i + 1) { a[i] = 1; } }" in
  Alcotest.(check bool) "counted with global bound" true (Affine.counted_header (Proginfo.affine f) l)

let test_not_counted_plds () =
  let f, l =
    single_loop_env
      {|
      struct node { int v; struct node *next; }
      struct node *head;
      void main() { struct node *p = head; while (p) { p = p->next; } }
      |}
  in
  Alcotest.(check bool) "plds loop not counted" false (Affine.counted_header (Proginfo.affine f) l)

let test_access_roots () =
  let f, l =
    single_loop_env
      {|
      int a[8];
      int b[8];
      void main() {
        int i;
        for (i = 0; i < 8; i = i + 1) { a[i] = b[i] + 1; }
      }
      |}
  in
  let accesses = Affine.accesses_of_loop (Proginfo.affine f) l in
  let heap = List.filter (fun a -> match a.Affine.acc_root with Affine.Rglobal _ -> true | _ -> false) accesses in
  Alcotest.(check bool) "at least load+store resolved to globals" true (List.length heap >= 2);
  let roots =
    List.filter_map (fun a -> match a.Affine.acc_root with Affine.Rglobal g -> Some g | _ -> None) heap
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "two distinct global roots" 2 (List.length roots);
  List.iter
    (fun a -> Alcotest.(check bool) "subscript affine" true (a.Affine.acc_subscript <> None))
    heap

let test_nonaffine_subscript () =
  let f, l =
    single_loop_env
      "int a[64]; int key[64]; void main() { int i; for (i = 0; i < 64; i = i + 1) { a[key[i]] = 1; } }"
  in
  let accesses = Affine.accesses_of_loop (Proginfo.affine f) l in
  let stores = List.filter (fun a -> a.Affine.acc_write) accesses in
  Alcotest.(check bool) "indirect store has no affine subscript" true
    (List.exists (fun a -> a.Affine.acc_subscript = None) stores)

(* --------------------------------------------------------------- *)
(* Deptest                                                           *)
(* --------------------------------------------------------------- *)

let mk_access ?(write = false) root subscript =
  {
    Affine.acc_iid = 0;
    acc_write = write;
    acc_root = root;
    acc_subscript = subscript;
    acc_loc = Loc.dummy;
  }

let aff coeffs const = Some { Affine.coeffs; const }

let test_deptest_cases () =
  let lid = "main#1" in
  let iv c = (Affine.Tiv lid, c) in
  let check name expected a b =
    let verdict =
      match Deptest.cross_iteration ~loop_id:lid a b with
      | Deptest.No_dep -> "no"
      | Deptest.Dep _ -> "dep"
    in
    Alcotest.(check string) name expected verdict
  in
  let g = Affine.Rglobal 0 in
  (* a[i] vs a[i]: same cell only within an iteration *)
  check "a[i] vs a[i]" "no" (mk_access ~write:true g (aff [ iv 1 ] 0)) (mk_access g (aff [ iv 1 ] 0));
  (* a[i] vs a[i-1]: distance-1 carried dep *)
  check "a[i] vs a[i-1]" "dep" (mk_access ~write:true g (aff [ iv 1 ] 0)) (mk_access g (aff [ iv 1 ] (-1)));
  (* a[2i] vs a[2i+1]: disjoint parity *)
  check "a[2i] vs a[2i+1]" "no" (mk_access ~write:true g (aff [ iv 2 ] 0)) (mk_access g (aff [ iv 2 ] 1));
  (* a[0] write every iteration: carried *)
  check "a[0] vs a[0]" "dep" (mk_access ~write:true g (aff [] 0)) (mk_access g (aff [] 0));
  (* different fixed cells *)
  check "a[0] vs a[1]" "no" (mk_access ~write:true g (aff [] 0)) (mk_access g (aff [] 1));
  (* non-affine defeated *)
  check "non-affine" "dep" (mk_access ~write:true g None) (mk_access g (aff [ iv 1 ] 0));
  (* different globals never alias *)
  let verdict =
    Deptest.cross_iteration ~loop_id:lid
      (mk_access ~write:true (Affine.Rglobal 0) None)
      (mk_access (Affine.Rglobal 1) None)
  in
  Alcotest.(check bool) "distinct globals" true (verdict = Deptest.No_dep)

let test_may_alias () =
  Alcotest.(check bool) "g0 vs g0" true (Deptest.may_alias (Affine.Rglobal 0) (Affine.Rglobal 0));
  Alcotest.(check bool) "g0 vs g1" false (Deptest.may_alias (Affine.Rglobal 0) (Affine.Rglobal 1));
  Alcotest.(check bool) "alloc vs global" false (Deptest.may_alias (Affine.Ralloc 5) (Affine.Rglobal 0));
  Alcotest.(check bool) "unknown vs anything" true (Deptest.may_alias Affine.Runknown (Affine.Rglobal 0));
  Alcotest.(check bool) "param vs global" true (Deptest.may_alias (Affine.Rparam 3) (Affine.Rglobal 0))

(* The full ZIV / strong-SIV / GCD matrix the static prover leans on,
   normalized through the same affine arithmetic the analysis uses. *)
let zero_aff = { Affine.coeffs = []; const = 0 }
let norm_aff coeffs const = Affine.affine_sub { Affine.coeffs; const } zero_aff

let test_deptest_table () =
  let lid = "main#1" in
  let g = Affine.Rglobal 0 in
  let acc ?(write = false) coeffs const = mk_access ~write g (Some (norm_aff coeffs const)) in
  let iv c = (Affine.Tiv lid, c) in
  let sym v c = (Affine.Tsym v, c) in
  let cases =
    [
      (* ZIV: both subscripts loop-invariant constants *)
      ("ziv a[3] w vs a[5] r", "no", acc ~write:true [] 3, acc [] 5);
      ("ziv a[4] w vs a[4] r", "dep", acc ~write:true [] 4, acc [] 4);
      (* strong SIV: equal strides, constant distance *)
      ("siv a[i] w vs a[i] r", "no", acc ~write:true [ iv 1 ] 0, acc [ iv 1 ] 0);
      ("siv a[i] w vs a[i+1] r", "dep", acc ~write:true [ iv 1 ] 0, acc [ iv 1 ] 1);
      ("siv a[4i] w vs a[4i+2] r", "no", acc ~write:true [ iv 4 ] 0, acc [ iv 4 ] 2);
      ("siv a[4i] w vs a[4i+8] r", "dep", acc ~write:true [ iv 4 ] 0, acc [ iv 4 ] 8);
      ("siv a[-i] w vs a[-i-3] r", "dep", acc ~write:true [ iv (-1) ] 0, acc [ iv (-1) ] (-3));
      (* GCD: differing strides, decided on divisibility of the offset *)
      ("gcd a[2i] w vs a[4i+1] r", "no", acc ~write:true [ iv 2 ] 0, acc [ iv 4 ] 1);
      ("gcd a[2i] w vs a[4i+2] r", "dep", acc ~write:true [ iv 2 ] 0, acc [ iv 4 ] 2);
      ("gcd a[3i+1] w vs a[6i] r", "no", acc ~write:true [ iv 3 ] 1, acc [ iv 6 ] 0);
      ("gcd a[0] w vs a[i] r", "dep", acc ~write:true [] 0, acc [ iv 1 ] 0);
      (* symbolic remainders: equal symbolic parts cancel, differing
         ones are conservatively a dependence *)
      ("sym a[2i+n] w vs a[2i+n+1] r", "no", acc ~write:true [ iv 2; sym 7 1 ] 0,
        acc [ iv 2; sym 7 1 ] 1);
      ("sym a[i+n] w vs a[i+m] r", "dep", acc ~write:true [ iv 1; sym 7 1 ] 0,
        acc [ iv 1; sym 8 1 ] 0);
      ("sym a[2i+n] w vs a[3i] r", "dep", acc ~write:true [ iv 2; sym 7 1 ] 0, acc [ iv 3 ] 0);
      (* symbolic-bound conservatism: the test does not know the trip
         count, so even an offset far beyond any plausible bound stays a
         dependence — this is what sends wraparound shapes to the
         dynamic stage instead of a bogus static proof *)
      ("bound a[i] w vs a[i+100] r", "dep", acc ~write:true [ iv 1 ] 0, acc [ iv 1 ] 100);
      (* non-affine on either side defeats the test *)
      ("non-affine lhs", "dep", mk_access ~write:true g None, acc [ iv 1 ] 0);
      ("non-affine rhs", "dep", acc ~write:true [ iv 1 ] 0, mk_access g None);
    ]
  in
  List.iter
    (fun (name, expected, a, b) ->
      let verdict =
        match Deptest.cross_iteration ~loop_id:lid a b with
        | Deptest.No_dep -> "no"
        | Deptest.Dep _ -> "dep"
      in
      Alcotest.(check string) name expected verdict)
    cases

(* Soundness of the static tests, the property the prover's safety rests
   on: whenever two subscripts actually collide at distinct concrete
   iterations (under any valuation of the shared symbol), the static
   test must NOT refute the dependence.  The converse — reporting a
   dependence that never materializes — is mere conservatism. *)
let prop_concrete_dep_never_refuted =
  QCheck.Test.make ~count:1000 ~name:"concrete-index dependence never statically refuted"
    QCheck.(
      pair
        (triple (int_range (-4) 4) (int_range (-4) 4) (int_range (-8) 8))
        (triple (int_range (-4) 4) (int_range (-4) 4) (int_range (-8) 8)))
    (fun ((c1, s1, k1), (c2, s2, k2)) ->
      let lid = "main#1" in
      let mk w c s k =
        mk_access ~write:w (Affine.Rglobal 0)
          (Some (norm_aff [ (Affine.Tiv lid, c); (Affine.Tsym 7, s) ] k))
      in
      let refuted =
        Deptest.cross_iteration ~loop_id:lid (mk true c1 s1 k1) (mk false c2 s2 k2)
        = Deptest.No_dep
      in
      let collision = ref false in
      (* x, y: iteration indices; w: any value of the invariant symbol *)
      for x = 0 to 9 do
        for y = 0 to 9 do
          for w = -4 to 4 do
            if x <> y && (c1 * x) + (s1 * w) + k1 = (c2 * y) + (s2 * w) + k2 then
              collision := true
          done
        done
      done;
      not (!collision && refuted))

(* --------------------------------------------------------------- *)
(* Scalars                                                           *)
(* --------------------------------------------------------------- *)

let classify_in src =
  let f, l = single_loop_env src in
  let classes = Scalars.classify_loop f.Proginfo.fi_cfg (Proginfo.affine f) (Proginfo.live f) l in
  fun name ->
    List.find_map
      (fun (vid, c) ->
        match Liveness.var_of_id (Proginfo.live f) vid with
        | Some v when v.Ir.vname = name -> Some c
        | _ -> None)
      classes

let test_scalar_classes () =
  let lookup =
    classify_in
      {|
      float a[16];
      void main() {
        int i;
        float total = 0.0;
        float best = -1.0;
        float carried = 0.0;
        for (i = 0; i < 16; i = i + 1) {
          float t = a[i] * 2.0;        // private
          total = total + t;           // sum reduction
          best = fmax(best, t);        // max reduction
          carried = carried * 0.9 + t; // genuine carried scalar
        }
        print(total);
        print(best);
        print(carried);
      }
      |}
  in
  Alcotest.(check bool) "i induction" true (lookup "i" = Some Scalars.Induction);
  Alcotest.(check bool) "t private" true (lookup "t" = Some Scalars.Private);
  Alcotest.(check bool) "total sum" true (lookup "total" = Some (Scalars.Reduction Scalars.Rsum));
  Alcotest.(check bool) "best max" true (lookup "best" = Some (Scalars.Reduction Scalars.Rmax));
  Alcotest.(check bool) "carried" true (lookup "carried" = Some Scalars.Carried)

let test_reduction_var_used_elsewhere_is_carried () =
  let lookup =
    classify_in
      {|
      float a[16];
      void main() {
        int i;
        float total = 0.0;
        for (i = 0; i < 16; i = i + 1) {
          total = total + a[i];
          a[i] = total;                 // reads the running sum: not a reduction
        }
        print(total);
      }
      |}
  in
  Alcotest.(check bool) "total carried" true (lookup "total" = Some Scalars.Carried)

(* --------------------------------------------------------------- *)
(* Memred                                                            *)
(* --------------------------------------------------------------- *)

let memred_in src =
  let f, l = single_loop_env src in
  Memred.find f.Proginfo.fi_cfg (Proginfo.affine f) l

let test_memred_histogram () =
  let rmws =
    memred_in
      "int h[16]; int key[64]; void main() { int i; for (i = 0; i < 64; i = i + 1) { h[key[i]] = h[key[i]] + 1; } }"
  in
  match rmws with
  | [ r ] -> (
      Alcotest.(check bool) "sum op" true (r.Memred.rmw_op = Scalars.Rsum);
      match r.Memred.rmw_kind with
      | Memred.Array_cell { subscript = None } -> ()
      | _ -> Alcotest.fail "expected a histogram (non-affine subscript)")
  | rs -> Alcotest.failf "expected 1 rmw, got %d" (List.length rs)

let test_memred_global_scalar () =
  let rmws =
    memred_in
      "float total; float a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { total = total + a[i]; } }"
  in
  Alcotest.(check bool) "global scalar rmw found" true
    (List.exists (fun r -> match r.Memred.rmw_kind with Memred.Global_scalar _ -> true | _ -> false) rmws)

(* Regression: a prefix sum must NOT be recognized as a reduction (the
   load and store addresses differ by the loop recurrence). *)
let test_memred_prefix_sum_rejected () =
  let rmws =
    memred_in
      "int p[17]; int c[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { p[i + 1] = p[i] + c[i]; } }"
  in
  Alcotest.(check int) "no rmw in prefix sum" 0 (List.length rmws)

(* Regression: a wavefront update reads its own array at other cells; the
   same-cell pair exists but must not excuse the neighbor dependence
   (checked at the tool level by the pair-wise exemption). *)
let test_memred_wavefront_pair_found_but_harmless () =
  let f, l =
    single_loop_env
      "float r[18]; void main() { int i; for (i = 1; i < 17; i = i + 1) { r[i] = r[i] + 0.5 * r[i - 1]; } }"
  in
  let rmws = Memred.find f.Proginfo.fi_cfg (Proginfo.affine f) l in
  (* the pair may be recognized ... *)
  ignore rmws;
  (* ... but the dependence test with pair-wise exemption still reports the
     carried neighbor dependence *)
  let pairs = Memred.iid_pairs rmws in
  let stores = List.map snd pairs in
  let exempt a b =
    let ia = a.Affine.acc_iid and ib = b.Affine.acc_iid in
    List.mem (ia, ib) pairs || List.mem (ib, ia) pairs || (ia = ib && List.mem ia stores)
  in
  let accesses = Affine.accesses_of_loop (Proginfo.affine f) l in
  Alcotest.(check bool) "wavefront dependence survives exemption" true
    (Deptest.loop_has_dependence ~loop_id:l.Loops.l_id ~exempt accesses <> None)

(* --------------------------------------------------------------- *)
(* Analyses on first read                                            *)
(* --------------------------------------------------------------- *)

(* Two domains first-read one function's analyses at once, on a fresh
   [Proginfo.t] each round: no read raises (a bare concurrent
   [Lazy.force] raises [Lazy.Undefined]), and both get the values the
   analyses compute eagerly. *)
let test_proginfo_concurrent_first_read () =
  let prog = Dca_progs.Benchmark.compile (Option.get (Dca_progs.Registry.find "LU")) in
  let eager =
    let f = fi (Proginfo.analyze prog) "main" in
    ( Liveness.analyze f.Proginfo.fi_cfg,
      Affine.analyze f.Proginfo.fi_cfg f.Proginfo.fi_forest,
      Pdg.build f.Proginfo.fi_cfg )
  in
  let pool = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 100 do
        let f = fi (Proginfo.analyze prog) "main" in
        Pool.map pool (fun () -> (Proginfo.live f, Proginfo.affine f, Proginfo.pdg f)) [ (); () ]
        |> List.iter (fun read ->
               Alcotest.(check bool) "equal to the eager analyses" true (read = eager))
      done)

let suites =
  [
    ( "dominance",
      [
        Alcotest.test_case "diamond" `Quick test_dominance_diamond;
        Alcotest.test_case "loop header" `Quick test_dominance_loop_header;
        QCheck_alcotest.to_alcotest prop_dominance_random;
        QCheck_alcotest.to_alcotest prop_loops_well_formed;
      ] );
    ( "loops",
      [
        Alcotest.test_case "nesting" `Quick test_loop_nesting;
        Alcotest.test_case "innermost" `Quick test_innermost_containing;
        Alcotest.test_case "array lookups" `Quick test_loop_lookups;
      ] );
    ( "liveness",
      [
        Alcotest.test_case "loop live-out" `Quick test_liveness_loop_live_out;
        Alcotest.test_case "straightline" `Quick test_liveness_straightline;
      ] );
    ( "pdg",
      [
        Alcotest.test_case "control dependence" `Quick test_control_dependence;
        Alcotest.test_case "backward slice" `Quick test_backward_slice_for_loop;
      ] );
    ("purity", [ Alcotest.test_case "summaries" `Quick test_purity ]);
    ( "affine",
      [
        Alcotest.test_case "induction" `Quick test_affine_induction;
        Alcotest.test_case "downward" `Quick test_affine_downward;
        Alcotest.test_case "global bound counted" `Quick test_counted_header_global_bound;
        Alcotest.test_case "plds not counted" `Quick test_not_counted_plds;
        Alcotest.test_case "roots" `Quick test_access_roots;
        Alcotest.test_case "non-affine subscript" `Quick test_nonaffine_subscript;
      ] );
    ( "deptest",
      [
        Alcotest.test_case "siv/ziv cases" `Quick test_deptest_cases;
        Alcotest.test_case "may_alias" `Quick test_may_alias;
        Alcotest.test_case "ziv/siv/gcd table" `Quick test_deptest_table;
        QCheck_alcotest.to_alcotest prop_concrete_dep_never_refuted;
      ] );
    ( "scalars",
      [
        Alcotest.test_case "classes" `Quick test_scalar_classes;
        Alcotest.test_case "escaping reduction" `Quick test_reduction_var_used_elsewhere_is_carried;
      ] );
    ( "memred",
      [
        Alcotest.test_case "histogram" `Quick test_memred_histogram;
        Alcotest.test_case "global scalar" `Quick test_memred_global_scalar;
        Alcotest.test_case "prefix sum rejected" `Quick test_memred_prefix_sum_rejected;
        Alcotest.test_case "wavefront" `Quick test_memred_wavefront_pair_found_but_harmless;
      ] );
    ( "proginfo",
      [ Alcotest.test_case "concurrent first read" `Quick test_proginfo_concurrent_first_read ] );
  ]

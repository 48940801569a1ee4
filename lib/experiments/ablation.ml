open Dca_core
open Dca_progs

(* A representative subset keeps the ablation pass affordable. *)
let subset_names = [ "EP"; "IS"; "CG"; "MG"; "BFS"; "treeadd"; "ising"; "water-spatial" ]
let subset () = List.map Registry.find_exn subset_names

let commutative_count config bm =
  let ev = Evaluation.evaluate ~config bm in
  List.length (Evaluation.dca_commutative ev)

let commutative_set config bm =
  let ev = Evaluation.evaluate ~config bm in
  Evaluation.dca_commutative ev

(* ------------------------------------------------------------------ *)

type verification_row = { ab_bench : string; ab_strict : int; ab_observational : int }

let verification () =
  List.map
    (fun bm ->
      let strict = { Commutativity.default_config with Commutativity.cc_escalate = false } in
      {
        ab_bench = bm.Benchmark.bm_name;
        ab_strict = commutative_count strict bm;
        ab_observational = commutative_count Commutativity.default_config bm;
      })
    (subset ())

let render_verification rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Ablation 1: live-out verification mode (commutative loops found)\n";
  Buffer.add_string buf (Printf.sprintf "  %-14s %10s %15s\n" "Bench" "strict" "observational");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %10d %15d%s\n" r.ab_bench r.ab_strict r.ab_observational
           (if r.ab_observational > r.ab_strict then "   <- worklist/reordering loops recovered"
            else "")))
    rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

type schedule_row = { sc_bench : string; sc_reverse_only : int; sc_default : int; sc_missed : int }

let schedules () =
  List.map
    (fun bm ->
      let weak =
        { Commutativity.default_config with Commutativity.cc_schedules = [ Schedule.Reverse ] }
      in
      let weak_set = commutative_set weak bm in
      let full_set = commutative_set Commutativity.default_config bm in
      let missed = List.filter (fun id -> not (List.mem id full_set)) weak_set in
      {
        sc_bench = bm.Benchmark.bm_name;
        sc_reverse_only = List.length weak_set;
        sc_default = List.length full_set;
        sc_missed = List.length missed;
      })
    (subset ())

let render_schedules rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Ablation 2: permutation presets (reverse-only vs reverse+rotate+3 shuffles)\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %12s %9s %8s\n" "Bench" "reverse-only" "default" "missed");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %12d %9d %8d%s\n" r.sc_bench r.sc_reverse_only r.sc_default
           r.sc_missed
           (if r.sc_missed > 0 then "   <- violations only random shuffles expose" else "")))
    rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

type machine_row = { mc_workers : int; mc_spawn : float; mc_ep : float; mc_bt : float }

let machine_sweep () =
  let speedup machine name =
    let bm = Registry.find_exn name in
    let ev = Evaluation.evaluate_cached bm in
    let plan =
      Dca_parallel.Planner.select ~machine ev.Evaluation.ev_info ev.Evaluation.ev_profile
        ~detected:(Evaluation.dca_commutative ev) ~strategy:Dca_parallel.Planner.Best_benefit
    in
    (Dca_parallel.Speedup.simulate ~machine ev.Evaluation.ev_info ev.Evaluation.ev_profile plan)
      .Dca_parallel.Speedup.sp_speedup
  in
  List.concat_map
    (fun workers ->
      List.map
        (fun spawn_factor ->
          let base = Dca_parallel.Machine.with_workers Evaluation.machine workers in
          let machine =
            { base with Dca_parallel.Machine.m_spawn_cost = base.Dca_parallel.Machine.m_spawn_cost *. spawn_factor }
          in
          {
            mc_workers = workers;
            mc_spawn = machine.Dca_parallel.Machine.m_spawn_cost;
            mc_ep = speedup machine "EP";
            mc_bt = speedup machine "BT";
          })
        [ 1.0; 4.0 ])
    [ 8; 16; 32; 72; 144 ]

type eps_row = { ep_bench : string; ep_exact : int; ep_tolerant : int }

let float_tolerance () =
  (* escalation is disabled in both arms: whole-program output comparison
     prints with 12 significant digits and would mask the low-bit rounding
     noise this ablation is about *)
  List.map
    (fun name ->
      let bm = Registry.find_exn name in
      let strict eps =
        { Commutativity.default_config with Commutativity.cc_eps = eps; cc_escalate = false }
      in
      {
        ep_bench = name;
        ep_exact = commutative_count (strict 0.0) bm;
        ep_tolerant = commutative_count (strict Commutativity.default_config.Commutativity.cc_eps) bm;
      })
    [ "EP"; "CG"; "water-spatial"; "em3d" ]

let render_float_tolerance rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Ablation 4: live-out float comparison (bit-exact vs relative tolerance)
";
  Buffer.add_string buf (Printf.sprintf "  %-14s %10s %10s
" "Bench" "exact" "tolerant");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %10d %10d%s
" r.ep_bench r.ep_exact r.ep_tolerant
           (if r.ep_tolerant > r.ep_exact then
              "   <- FP reductions survive only with rounding tolerance"
            else "")))
    rows;
  Buffer.contents buf

let render_machine_sweep rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Ablation 3: machine-model sensitivity (EP and BT speedups)\n";
  Buffer.add_string buf (Printf.sprintf "  %8s %10s %8s %8s\n" "workers" "spawn" "EP" "BT");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %8d %10.0f %7.1fx %7.1fx\n" r.mc_workers r.mc_spawn r.mc_ep r.mc_bt))
    rows;
  Buffer.contents buf

open Dca_frontend
open Ast

type spec = { sp_index : string; sp_trip : int; sp_line : int; sp_for : Ast.stmt }

let max_trip = 7

(* ------------------------------------------------------------------ *)
(* Marked-loop recognition                                             *)
(* ------------------------------------------------------------------ *)

(* The canonical counted form the generator (and corpus files) use:
   for (int i = 0; i < n; i = i + 1) { ... }. *)
let canonical_spec (s : stmt) =
  match s.sdesc with
  | Sfor (Some init, Some cond, Some step, _) -> begin
      match (init.sdesc, cond.edesc, step.sdesc) with
      | ( Sdecl (Tint, iv, Some { edesc = Eint 0; _ }),
          Ebinop (Lt, { edesc = Evar iv'; _ }, { edesc = Eint n; _ }),
          Sassign
            ( { edesc = Evar iv''; _ },
              { edesc = Ebinop (Add, { edesc = Evar iv'''; _ }, { edesc = Eint 1; _ }); _ } ) )
        when iv = iv' && iv = iv'' && iv = iv''' ->
          Some { sp_index = iv; sp_trip = n; sp_line = s.sloc.Loc.line; sp_for = s }
      | _ -> None
    end
  | _ -> None

let find_marked_loop (p : Ast.program) =
  match List.find_opt (fun f -> f.f_name = "main") p.funcs with
  | None -> Error "no main function"
  | Some main ->
      let rec scan = function
        | { sdesc = Sprints m; _ } :: next :: _ when m = Gen_program.marker -> begin
            match canonical_spec next with
            | Some spec -> Ok spec
            | None -> Error "statement after the marker is not a canonical counted for loop"
          end
        | _ :: rest -> scan rest
        | [] -> Error "no DCA_FUZZ_LOOP marker in main"
      in
      scan main.f_body

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

let unroll (p : Ast.program) spec perm =
  let body =
    match spec.sp_for.sdesc with Sfor (_, _, _, b) -> b | _ -> invalid_arg "Oracle.unroll"
  in
  let block k =
    {
      sdesc =
        Sblock
          ({
             sdesc = Sdecl (Tint, spec.sp_index, Some { edesc = Eint perm.(k); eloc = Loc.dummy });
             sloc = Loc.dummy;
           }
          :: body);
      sloc = Loc.dummy;
    }
  in
  let unrolled = List.init (Array.length perm) block in
  let replace stmts =
    List.concat_map (fun s -> if s == spec.sp_for then unrolled else [ s ]) stmts
  in
  {
    p with
    funcs =
      List.map (fun f -> if f.f_name = "main" then { f with f_body = replace f.f_body } else f) p.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_outputs ?(fuel = 20_000_000) ~input (p : Ast.program) =
  match
    let ir = Dca_ir.Lower.lower_program (Typecheck.check_program p) in
    let ctx = Dca_interp.Eval.create ~fuel ~input ir in
    Dca_interp.Eval.run_main ctx;
    Dca_interp.Eval.outputs ctx
  with
  | outs -> Ok outs
  | exception Loc.Error (l, msg) -> Error (Printf.sprintf "%s: %s" (Loc.to_string l) msg)
  | exception Dca_interp.Eval.Trap msg -> Error ("trap: " ^ msg)
  | exception Dca_interp.Eval.Out_of_fuel -> Error "out of fuel"

(* ------------------------------------------------------------------ *)
(* Permutation enumeration (lexicographic)                             *)
(* ------------------------------------------------------------------ *)

(* Standard next-permutation step; returns false once [a] was the last
   (descending) permutation. *)
let next_permutation a =
  let n = Array.length a in
  let i = ref (n - 2) in
  while !i >= 0 && a.(!i) >= a.(!i + 1) do
    decr i
  done;
  if !i < 0 then false
  else begin
    let j = ref (n - 1) in
    while a.(!j) <= a.(!i) do
      decr j
    done;
    let t = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- t;
    let l = ref (!i + 1) and r = ref (n - 1) in
    while !l < !r do
      let t = a.(!l) in
      a.(!l) <- a.(!r);
      a.(!r) <- t;
      incr l;
      decr r
    done;
    true
  end

let permutations n =
  if n > max_trip then invalid_arg "Oracle.permutations: trip count too large";
  let first = Array.init (max n 0) (fun i -> i) in
  let rec seq cur () =
    match cur with
    | None -> Seq.Nil
    | Some a ->
        let next =
          let b = Array.copy a in
          if next_permutation b then Some b else None
        in
        Seq.Cons (a, seq next)
  in
  seq (Some first)

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = Commutative | Non_commutative of int array | Unsupported of string

let is_identity a =
  let ok = ref true in
  Array.iteri (fun i x -> if x <> i then ok := false) a;
  !ok

(* DCA's own tolerance: the oracle is a sound cross-check of DCA's
   verdicts only while the two compare outputs alike. *)
let eps = Dca_core.Commutativity.default_config.Dca_core.Commutativity.cc_eps

let decide ?fuel ~input (p : Ast.program) spec =
  if spec.sp_trip > max_trip then
    Unsupported (Printf.sprintf "trip count %d exceeds the oracle bound %d" spec.sp_trip max_trip)
  else if spec.sp_trip <= 1 then Commutative
  else
    match run_outputs ?fuel ~input (unroll p spec (Array.init spec.sp_trip (fun i -> i))) with
    | Error msg -> Unsupported ("golden unrolled run failed: " ^ msg)
    | Ok golden ->
        let rec sweep perms =
          match Seq.uncons perms with
          | None -> Commutative
          | Some (perm, rest) ->
              if is_identity perm then sweep rest
              else begin
                match run_outputs ?fuel ~input (unroll p spec perm) with
                | Ok outs when Dca_interp.Observable.outputs_equal ~eps golden outs -> sweep rest
                | Ok _ | Error _ -> Non_commutative (Array.copy perm)
              end
        in
        sweep (permutations spec.sp_trip)

let check_witness ?fuel ~input (p : Ast.program) spec perm =
  if Array.length perm <> spec.sp_trip then `Error "witness length does not match trip count"
  else
    match run_outputs ?fuel ~input (unroll p spec (Array.init spec.sp_trip (fun i -> i))) with
    | Error msg -> `Error ("golden unrolled run failed: " ^ msg)
    | Ok golden -> begin
        match run_outputs ?fuel ~input (unroll p spec perm) with
        | Ok outs ->
            if Dca_interp.Observable.outputs_equal ~eps golden outs then `Match else `Mismatch
        | Error _ -> `Mismatch
      end

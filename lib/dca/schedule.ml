open Dca_support

type t = Identity | Reverse | Rotate | Shuffle of int

let apply t n =
  match t with
  | Identity -> Array.init n (fun i -> i)
  | Reverse -> Array.init n (fun i -> n - 1 - i)
  | Rotate ->
      let half = (n + 1) / 2 in
      Array.init n (fun i -> (i + half) mod n)
  | Shuffle seed ->
      let prng = Prng.create (seed * 0x9E3779B9) in
      Prng.permutation prng n

let default_shuffles = 3

let presets ?(shuffles = default_shuffles) ?(seed = 2021) () =
  [ Reverse; Rotate ] @ List.init shuffles (fun k -> Shuffle (seed + k))

let to_string = function
  | Identity -> "identity"
  | Reverse -> "reverse"
  | Rotate -> "rotate-half"
  | Shuffle seed -> Printf.sprintf "shuffle(%d)" seed

let of_string s =
  match s with
  | "identity" -> Some Identity
  | "reverse" -> Some Reverse
  | "rotate-half" -> Some Rotate
  | _ ->
      if String.length s > 8 && String.sub s 0 8 = "shuffle(" && s.[String.length s - 1] = ')' then
        match int_of_string_opt (String.sub s 8 (String.length s - 9)) with
        | Some seed -> Some (Shuffle seed)
        | None -> None
      else None

(* Sift the schedule list for one trip count: drop schedules whose induced
   permutation is the identity (trip count <= 1 makes them all identity) or
   duplicates an earlier schedule's permutation at this [n].  Returns the
   kept schedules (with their permutation) and the number sifted out. *)
let sift schedules n =
  let identity = Array.init n (fun i -> i) in
  let rec go kept skipped = function
    | [] -> (List.rev kept, skipped)
    | sched :: rest ->
        let perm = apply sched n in
        if perm = identity || List.exists (fun (_, p) -> p = perm) kept then
          go kept (skipped + 1) rest
        else go ((sched, perm) :: kept) skipped rest
  in
  go [] 0 schedules

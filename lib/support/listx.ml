let fold_lefti f init l =
  let rec go acc i = function
    | [] -> acc
    | x :: rest -> go (f acc i x) (i + 1) rest
  in
  go init 0 l

let rec take n l =
  if n <= 0 then []
  else
    match l with
    | [] -> []
    | x :: rest -> x :: take (n - 1) rest

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

let index_of pred l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 l

let dedup_keep_order eq l =
  let rec go seen = function
    | [] -> List.rev seen
    | x :: rest -> if List.exists (eq x) seen then go seen rest else go (x :: seen) rest
  in
  go [] l

let sum_int = List.fold_left ( + ) 0

let max_float = function
  | [] -> invalid_arg "Listx.max_float: empty list"
  | x :: rest -> List.fold_left Float.max x rest

let group_by key l =
  let groups = ref [] in
  let add x =
    let k = key x in
    match List.assoc_opt k !groups with
    | Some members -> members := x :: !members
    | None -> groups := !groups @ [ (k, ref [ x ]) ]
  in
  List.iter add l;
  List.map (fun (k, members) -> (k, List.rev !members)) !groups

let topological_sort succs nodes =
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let order = ref [] in
  let in_nodes x = List.mem x nodes in
  let exception Cycle in
  let rec visit x =
    if Hashtbl.mem done_ x then ()
    else if Hashtbl.mem visiting x then raise Cycle
    else begin
      Hashtbl.replace visiting x ();
      List.iter (fun s -> if in_nodes s then visit s) (succs x);
      Hashtbl.remove visiting x;
      Hashtbl.replace done_ x ();
      order := x :: !order
    end
  in
  match List.iter visit nodes with
  | () -> Some !order
  | exception Cycle -> None

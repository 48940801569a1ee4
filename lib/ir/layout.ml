open Dca_frontend
open Ast

type cellkind = KInt | KFloat | KPtr

type struct_layout = {
  sl_size : int;
  sl_offsets : int array;
  sl_types : ty array;
  sl_kinds : cellkind array;
}

type t = (string, struct_layout) Hashtbl.t

let rec size_raw tbl seen = function
  | Tint | Tfloat | Tptr _ -> 1
  | Tvoid -> 0
  | Tstruct name -> (struct_layout_raw tbl seen name).sl_size
  | Tarray (elem, dims) -> List.fold_left ( * ) (size_raw tbl seen elem) dims

and kinds_raw tbl seen = function
  | Tint -> [| KInt |]
  | Tfloat -> [| KFloat |]
  | Tptr _ -> [| KPtr |]
  | Tvoid -> [||]
  | Tstruct name -> (struct_layout_raw tbl seen name).sl_kinds
  | Tarray (elem, dims) ->
      let n = List.fold_left ( * ) 1 dims in
      let elem_kinds = kinds_raw tbl seen elem in
      let m = Array.length elem_kinds in
      Array.init (n * m) (fun i -> elem_kinds.(i mod m))

and struct_layout_raw (tbl, defs) seen name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None ->
      if List.mem name seen then
        invalid_arg (Printf.sprintf "Layout.create: recursive struct value '%s'" name);
      let def =
        match List.find_opt (fun s -> s.str_name = name) defs with
        | Some d -> d
        | None -> invalid_arg (Printf.sprintf "Layout.create: unknown struct '%s'" name)
      in
      let fields = Array.of_list def.str_fields in
      let n = Array.length fields in
      let offsets = Array.make n 0 and types = Array.make n Tint in
      let kinds = ref [] in
      let off = ref 0 in
      for i = 0 to n - 1 do
        let fty, _ = fields.(i) in
        offsets.(i) <- !off;
        types.(i) <- fty;
        off := !off + size_raw (tbl, defs) (name :: seen) fty;
        kinds := kinds_raw (tbl, defs) (name :: seen) fty :: !kinds
      done;
      let layout =
        {
          sl_size = !off;
          sl_offsets = offsets;
          sl_types = types;
          sl_kinds = Array.concat (List.rev !kinds);
        }
      in
      Hashtbl.replace tbl name layout;
      layout

let create defs : t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun s -> ignore (struct_layout_raw (tbl, defs) [] s.str_name)) defs;
  tbl

let find t name =
  match Hashtbl.find_opt t name with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Layout: unknown struct '%s'" name)

let rec size t = function
  | Tint | Tfloat | Tptr _ -> 1
  | Tvoid -> 0
  | Tstruct name -> (find t name).sl_size
  | Tarray (elem, dims) -> List.fold_left ( * ) (size t elem) dims

let field_offset t sname i = (find t sname).sl_offsets.(i)
let field_type t sname i = (find t sname).sl_types.(i)

let rec cell_kinds t = function
  | Tint -> [| KInt |]
  | Tfloat -> [| KFloat |]
  | Tptr _ -> [| KPtr |]
  | Tvoid -> [||]
  | Tstruct name -> (find t name).sl_kinds
  | Tarray (elem, dims) ->
      let n = List.fold_left ( * ) 1 dims in
      let elem_kinds = cell_kinds t elem in
      let m = Array.length elem_kinds in
      Array.init (n * m) (fun i -> elem_kinds.(i mod m))

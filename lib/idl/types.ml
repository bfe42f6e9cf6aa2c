type base =
  | Int32
  | Card32
  | Bool
  | Fixed_bytes of int
  | Var_bytes of int
  | Record of (string * base) list

type mode = In | Out | In_out

type param = {
  pname : string;
  ty : base;
  mode : mode;
  by_ref : bool;
  uninterpreted : bool;
}

type complexity = Simple | Complex

type proc = {
  proc_name : string;
  params : param list;
  result : base option;
  astacks : int;
  complexity : complexity;
}

type interface = { interface_name : string; procs : proc list }

let default_astacks = 5

let param ?(mode = In) ?(by_ref = false) ?(uninterpreted = false) pname ty =
  { pname; ty; mode; by_ref; uninterpreted }

let proc ?result ?(astacks = default_astacks) ?(complexity = Simple) proc_name
    params =
  { proc_name; params; result; astacks; complexity }

let interface interface_name procs = { interface_name; procs }

let find_proc i name = List.find_opt (fun p -> p.proc_name = name) i.procs

let rec base_size = function
  | Int32 | Card32 | Bool -> 4
  | Fixed_bytes n -> n
  | Var_bytes max -> 4 + max
  | Record fields ->
      List.fold_left (fun acc (_, ty) -> acc + base_size ty) 0 fields

let rec is_fixed_size = function
  | Int32 | Card32 | Bool | Fixed_bytes _ -> true
  | Var_bytes _ -> false
  | Record fields -> List.for_all (fun (_, ty) -> is_fixed_size ty) fields

let proc_fixed_size p =
  List.for_all (fun prm -> is_fixed_size prm.ty) p.params
  && match p.result with None -> true | Some ty -> is_fixed_size ty

let rec unique = function
  | [] -> true
  | x :: rest -> (not (List.mem x rest)) && unique rest

let validate i =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not (unique (List.map (fun p -> p.proc_name) i.procs)) then
    bad "duplicate procedure names in %s" i.interface_name;
  List.iter
    (fun p ->
      if p.astacks <= 0 then bad "%s: astacks must be positive" p.proc_name;
      if not (unique (List.map (fun prm -> prm.pname) p.params)) then
        bad "%s: duplicate parameter names" p.proc_name;
      let rec check_size ty =
        match ty with
        | Fixed_bytes n when n <= 0 -> bad "%s: non-positive size" p.proc_name
        | Var_bytes n when n <= 0 -> bad "%s: non-positive size" p.proc_name
        | Record [] -> bad "%s: empty record" p.proc_name
        | Record fields ->
            if not (unique (List.map fst fields)) then
              bad "%s: duplicate record fields" p.proc_name;
            List.iter (fun (_, fty) -> check_size fty) fields
        | Int32 | Card32 | Bool | Fixed_bytes _ | Var_bytes _ -> ()
      in
      List.iter (fun prm -> check_size prm.ty) p.params;
      Option.iter check_size p.result)
    i.procs;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

let rec pp_base ppf = function
  | Int32 -> Format.pp_print_string ppf "int"
  | Card32 -> Format.pp_print_string ppf "card"
  | Bool -> Format.pp_print_string ppf "bool"
  | Fixed_bytes n -> Format.fprintf ppf "bytes[%d]" n
  | Var_bytes n -> Format.fprintf ppf "varbytes[%d]" n
  | Record fields ->
      Format.fprintf ppf "record { %a }"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (name, ty) -> Format.fprintf ppf "%s: %a" name pp_base ty))
        fields

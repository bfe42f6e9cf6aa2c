let ethernet_packet_size = 1500

type t = {
  proc : Types.proc;
  astack_size : int;
  exact : bool;
  in_params : Types.param list;
  n_inputs : int;
  static_plan : plan option;
}

and slot = { sparam : Types.param option; offset : int; size : int }

and plan = { in_slots : slot list; out_slots : slot list; total_bytes : int }

exception Arity_mismatch of string

let is_input p =
  match p.Types.mode with Types.In | Types.In_out -> true | Types.Out -> false

let is_output p =
  match p.Types.mode with Types.Out | Types.In_out -> true | Types.In -> false

(* Slots in declaration order, then the result; [input_size] gives the
   size of each input parameter's slot, in order. *)
let build proc ~input_size =
  let offset = ref 0 and ins = ref [] and outs = ref [] in
  let slot sparam size =
    let s = { sparam; offset = !offset; size } in
    offset := !offset + size;
    s
  in
  List.iter
    (fun p ->
      let s =
        slot (Some p)
          (if is_input p then input_size p else Types.base_size p.Types.ty)
      in
      if is_input p then ins := s :: !ins;
      if is_output p then outs := s :: !outs)
    proc.Types.params;
  (match proc.Types.result with
  | Some ty -> outs := slot None (Types.base_size ty) :: !outs
  | None -> ());
  { in_slots = List.rev !ins; out_slots = List.rev !outs; total_bytes = !offset }

let of_proc ?(default_size = ethernet_packet_size) proc =
  let in_params = List.filter is_input proc.Types.params in
  (* With every input of fixed size no argument value moves a slot, so
     the layout the stub generator fixes at compile time serves every
     call. *)
  let static_plan =
    if List.for_all (fun p -> Types.is_fixed_size p.Types.ty) in_params then
      Some (build proc ~input_size:(fun p -> Types.base_size p.Types.ty))
    else None
  in
  let exact = Types.proc_fixed_size proc in
  {
    proc;
    astack_size =
      (match static_plan with
      | Some plan when exact -> plan.total_bytes
      | Some _ | None -> default_size);
    exact;
    in_params;
    n_inputs = List.length in_params;
    static_plan;
  }

let rec check_inputs params args =
  match (params, args) with
  | p :: params, v :: args ->
      Value.check_exn p.Types.ty v;
      check_inputs params args
  | _ -> ()

let plan t ~args =
  let n = List.length args in
  if n <> t.n_inputs then
    raise
      (Arity_mismatch
         (Printf.sprintf "%s expects %d input arguments, got %d"
            t.proc.Types.proc_name t.n_inputs n));
  check_inputs t.in_params args;
  match t.static_plan with
  | Some plan -> plan
  | None ->
      let rest = ref args in
      build t.proc ~input_size:(fun p ->
          match !rest with
          | v :: vs ->
              rest := vs;
              Value.encoded_size p.Types.ty v
          | [] -> assert false)

let fits t plan = plan.total_bytes <= t.astack_size

let slot_type s ~proc =
  match (s.sparam, proc.Types.result) with
  | Some p, _ -> p.Types.ty
  | None, Some ty -> ty
  | None, None -> assert false

let immutable_copy_slots plan =
  List.filter
    (fun s ->
      match s.sparam with
      | Some p -> not p.Types.uninterpreted
      | None -> false)
    plan.in_slots

let ethernet_packet_size = 1500

type t = {
  proc : Types.proc;
  astack_size : int;
  exact : bool;
}

type slot = {
  sparam : Types.param option;
  svalue : Value.t option;
  offset : int;
  size : int;
}

type plan = { slots : slot list; total_bytes : int }

exception Arity_mismatch of string

let of_proc ?(default_size = ethernet_packet_size) proc =
  if Types.proc_fixed_size proc then begin
    let size =
      List.fold_left (fun acc p -> acc + Types.base_size p.Types.ty) 0 proc.Types.params
      + match proc.Types.result with None -> 0 | Some ty -> Types.base_size ty
    in
    { proc; astack_size = size; exact = true }
  end
  else { proc; astack_size = default_size; exact = false }

let plan t ~args =
  let proc = t.proc in
  let inputs =
    List.filter
      (fun p -> match p.Types.mode with Types.In | Types.In_out -> true | Types.Out -> false)
      proc.Types.params
  in
  if List.length inputs <> List.length args then
    raise
      (Arity_mismatch
         (Printf.sprintf "%s expects %d input arguments, got %d"
            proc.Types.proc_name (List.length inputs) (List.length args)));
  let remaining = ref args in
  let next_input () =
    match !remaining with
    | v :: rest ->
        remaining := rest;
        v
    | [] -> assert false
  in
  let offset = ref 0 in
  let mk_slot sparam svalue size =
    let s = { sparam; svalue; offset = !offset; size } in
    offset := !offset + size;
    s
  in
  let param_slots =
    List.map
      (fun p ->
        match p.Types.mode with
        | Types.In | Types.In_out ->
            let v = next_input () in
            Value.check_exn p.Types.ty v;
            mk_slot (Some p) (Some v) (Value.encoded_size p.Types.ty v)
        | Types.Out -> mk_slot (Some p) None (Types.base_size p.Types.ty))
      proc.Types.params
  in
  let result_slot =
    match proc.Types.result with
    | None -> []
    | Some ty -> [ mk_slot None None (Types.base_size ty) ]
  in
  { slots = param_slots @ result_slot; total_bytes = !offset }

let fits t plan = plan.total_bytes <= t.astack_size

let input_slots plan = List.filter (fun s -> s.svalue <> None) plan.slots

let output_slots plan =
  List.filter
    (fun s ->
      match s.sparam with
      | None -> true (* result *)
      | Some p -> (
          match p.Types.mode with
          | Types.Out | Types.In_out -> true
          | Types.In -> false))
    plan.slots

let immutable_copy_slots plan =
  List.filter
    (fun s ->
      match (s.sparam, s.svalue) with
      | Some p, Some _ -> not p.Types.uninterpreted
      | _ -> false)
    plan.slots

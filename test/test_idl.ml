module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module L = Lrpc_idl.Layout
module P = Lrpc_idl.Parser
module C = Lrpc_idl.Codegen

(* --- Types ---------------------------------------------------------------- *)

let test_base_sizes () =
  Alcotest.(check int) "int" 4 (I.base_size I.Int32);
  Alcotest.(check int) "card" 4 (I.base_size I.Card32);
  Alcotest.(check int) "bool" 4 (I.base_size I.Bool);
  Alcotest.(check int) "fixed" 200 (I.base_size (I.Fixed_bytes 200));
  Alcotest.(check int) "var includes length word" 104 (I.base_size (I.Var_bytes 100))

let test_proc_fixed_size () =
  let fixed = I.proc "f" [ I.param "a" I.Int32 ] ~result:I.Bool in
  let var = I.proc "g" [ I.param "a" (I.Var_bytes 10) ] in
  Alcotest.(check bool) "fixed" true (I.proc_fixed_size fixed);
  Alcotest.(check bool) "variable" false (I.proc_fixed_size var)

let test_validate_rejects_duplicates () =
  let dup = I.interface "X" [ I.proc "p" []; I.proc "p" [] ] in
  Alcotest.(check bool) "dup procs" true (Result.is_error (I.validate dup));
  let dup_params =
    I.interface "Y" [ I.proc "p" [ I.param "a" I.Int32; I.param "a" I.Bool ] ]
  in
  Alcotest.(check bool) "dup params" true (Result.is_error (I.validate dup_params))

let test_validate_rejects_bad_sizes () =
  let bad = I.interface "X" [ I.proc "p" [ I.param "a" (I.Fixed_bytes 0) ] ] in
  Alcotest.(check bool) "zero size" true (Result.is_error (I.validate bad));
  let bad2 = I.interface "X" [ I.proc ~astacks:0 "p" [] ] in
  Alcotest.(check bool) "zero astacks" true (Result.is_error (I.validate bad2))

let test_default_astacks () =
  Alcotest.(check int) "paper default" 5 I.default_astacks;
  Alcotest.(check int) "used by proc" 5 (I.proc "p" []).I.astacks

(* --- Value ----------------------------------------------------------------- *)

let test_value_roundtrips () =
  let cases =
    [
      (I.Int32, V.int 123456);
      (I.Int32, V.int (-7));
      (I.Card32, V.card 0);
      (I.Card32, V.card 0xFFFF_FFFF);
      (I.Bool, V.bool true);
      (I.Bool, V.bool false);
      (I.Fixed_bytes 5, V.bytes (Bytes.of_string "hello"));
      (I.Var_bytes 10, V.bytes (Bytes.of_string "hi"));
      (I.Var_bytes 10, V.bytes Bytes.empty);
    ]
  in
  List.iter
    (fun (ty, v) ->
      let encoded = V.encode ty v in
      let decoded, consumed = V.decode ty encoded ~off:0 in
      Alcotest.(check bool) "roundtrip equal" true (V.equal v decoded);
      Alcotest.(check int) "consumed all" (Bytes.length encoded) consumed)
    cases

let test_value_conformance () =
  Alcotest.(check bool) "negative card" true
    (Result.is_error (V.type_check I.Card32 (V.card (-1))));
  Alcotest.(check bool) "wrong constructor" true
    (Result.is_error (V.type_check I.Int32 (V.bool true)));
  Alcotest.(check bool) "fixed length mismatch" true
    (Result.is_error (V.type_check (I.Fixed_bytes 3) (V.bytes (Bytes.create 4))));
  Alcotest.(check bool) "var over max" true
    (Result.is_error (V.type_check (I.Var_bytes 3) (V.bytes (Bytes.create 4))));
  Alcotest.(check bool) "int32 overflow" true
    (Result.is_error (V.type_check I.Int32 (V.int 0x1_0000_0000)))

let test_value_encode_raises () =
  Alcotest.check_raises "conformance error"
    (V.Conformance_error "negative CARDINAL") (fun () ->
      ignore (V.encode I.Card32 (V.card (-5))))

let test_decode_corrupt_var_length () =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 100l;
  (* longer than max *)
  match V.decode (I.Var_bytes 4) b ~off:0 with
  | exception V.Conformance_error _ -> ()
  | _ -> Alcotest.fail "corrupt length accepted"

(* [encode_into] writes exactly [encode]'s bytes at the offset and
   returns their length; a value that does not conform raises before a
   byte is written. *)
let test_encode_into () =
  let ty = I.Record [ ("n", I.Int32); ("b", I.Var_bytes 16) ] in
  let v = V.struct_ [ V.int (-3); V.bytes_of_string "abc" ] in
  let buf = Bytes.make 32 '.' in
  let n = V.encode_into ty v buf ~off:5 in
  Alcotest.(check int) "length" (V.encoded_size ty v) n;
  Alcotest.(check bytes) "same bytes" (V.encode ty v) (Bytes.sub buf 5 n);
  Alcotest.(check string) "nothing else touched" "....." (Bytes.sub_string buf 0 5);
  let before = Bytes.copy buf in
  Alcotest.check_raises "conformance first" (V.Conformance_error "negative CARDINAL")
    (fun () -> ignore (V.encode_into I.Card32 (V.card (-5)) buf ~off:0));
  Alcotest.(check bytes) "unwritten" before buf

(* [decode_value] reads in place as if the buffer ended at [stop]: a
   read past [stop] raises what the stdlib's own read raises on a copy
   that ends there, while the same bytes decode as [decode] does with
   the whole buffer in view. *)
let test_decode_value_stop () =
  let buf = Bytes.make 32 'x' in
  Bytes.set_int32_le buf 8 10l;
  let ty = I.Var_bytes 64 in
  Alcotest.(check bool) "whole buffer: as decode" true
    (V.equal (fst (V.decode ty buf ~off:8)) (V.decode_value ty buf ~off:8 ~stop:32));
  let stdlib_error f =
    match f () with exception e -> e | _ -> Alcotest.fail "the stdlib read succeeded"
  in
  let sub_error = stdlib_error (fun () -> Bytes.sub (Bytes.create 8) 4 10) in
  let int_error = stdlib_error (fun () -> Bytes.get_int32_le (Bytes.create 3) 0) in
  List.iter
    (fun (what, ty, stop, error) ->
      Alcotest.check_raises what error (fun () ->
          ignore (V.decode_value ty buf ~off:8 ~stop)))
    [
      ("bytes past stop", ty, 16, sub_error);
      ("length past stop", ty, 10, int_error);
      ("int past stop", I.Int32, 11, int_error);
      ("fixed past stop", I.Fixed_bytes 9, 16, sub_error);
    ]

let test_payload_bytes () =
  Alcotest.(check int) "scalar" 4 (V.payload_bytes (V.int 9));
  Alcotest.(check int) "bytes" 7 (V.payload_bytes (V.bytes (Bytes.create 7)))

(* --- Layout ----------------------------------------------------------------- *)

let add_proc =
  I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ]

let test_layout_exact_size () =
  let l = L.of_proc add_proc in
  Alcotest.(check bool) "exact" true l.L.exact;
  Alcotest.(check int) "4+4+4" 12 l.L.astack_size

let test_layout_ethernet_default () =
  let p = I.proc "v" [ I.param "b" (I.Var_bytes 4000) ] in
  let l = L.of_proc p in
  Alcotest.(check bool) "not exact" false l.L.exact;
  Alcotest.(check int) "ethernet default" 1500 l.L.astack_size;
  let l2 = L.of_proc ~default_size:4096 p in
  Alcotest.(check int) "override" 4096 l2.L.astack_size

let test_plan_offsets () =
  let plan = L.plan (L.of_proc add_proc) ~args:[ V.int 1; V.int 2 ] in
  let offsets = List.map (fun s -> s.L.offset) (plan.L.in_slots @ plan.L.out_slots) in
  Alcotest.(check (list int)) "sequential" [ 0; 4; 8 ] offsets;
  Alcotest.(check int) "total" 12 plan.L.total_bytes

let test_plan_arity () =
  match L.plan (L.of_proc add_proc) ~args:[ V.int 1 ] with
  | exception L.Arity_mismatch _ -> ()
  | _ -> Alcotest.fail "bad arity accepted"

let test_plan_out_param_reserved () =
  let p =
    I.proc "f" [ I.param "x" I.Int32; I.param ~mode:I.Out "o" (I.Fixed_bytes 8) ]
  in
  let plan = L.plan (L.of_proc p) ~args:[ V.int 1 ] in
  Alcotest.(check int) "out space reserved" 12 plan.L.total_bytes;
  Alcotest.(check int) "one input" 1 (List.length plan.L.in_slots);
  Alcotest.(check int) "one output" 1 (List.length plan.L.out_slots)

let test_plan_inout_shares_slot () =
  let p = I.proc "f" [ I.param ~mode:I.In_out "b" (I.Fixed_bytes 16) ] in
  let plan = L.plan (L.of_proc p) ~args:[ V.bytes (Bytes.create 16) ] in
  Alcotest.(check int) "it is an input" 1 (List.length plan.L.in_slots);
  Alcotest.(check int) "and an output" 1 (List.length plan.L.out_slots);
  Alcotest.(check bool) "one slot total" true
    (List.hd plan.L.in_slots == List.hd plan.L.out_slots
    && plan.L.total_bytes = 16)

let test_plan_var_size_actual () =
  let p = I.proc "v" [ I.param "b" (I.Var_bytes 1000) ] in
  let plan = L.plan (L.of_proc p) ~args:[ V.bytes (Bytes.create 10) ] in
  Alcotest.(check int) "actual size used" 14 plan.L.total_bytes;
  Alcotest.(check bool) "fits" true (L.fits (L.of_proc p) plan)

let test_fits_oversize () =
  let p = I.proc "v" [ I.param "b" (I.Var_bytes 4000) ] in
  let layout = L.of_proc p in
  let plan = L.plan layout ~args:[ V.bytes (Bytes.create 3000) ] in
  Alcotest.(check bool) "must go out of band" false (L.fits layout plan)

let test_immutable_copy_slots () =
  let p =
    I.proc "w"
      [
        I.param "path" (I.Fixed_bytes 8);
        I.param ~uninterpreted:true "data" (I.Fixed_bytes 64);
      ]
  in
  let plan =
    L.plan (L.of_proc p) ~args:[ V.bytes (Bytes.create 8); V.bytes (Bytes.create 64) ]
  in
  (* only the interpreted path needs the defensive copy *)
  Alcotest.(check int) "one slot to copy" 1
    (List.length (L.immutable_copy_slots plan))

(* --- Records ------------------------------------------------------------------ *)

let file_attr =
  I.Record
    [ ("size", I.Card32); ("mtime", I.Int32); ("name", I.Fixed_bytes 12) ]

let test_record_size_and_fixedness () =
  Alcotest.(check int) "4+4+12" 20 (I.base_size file_attr);
  Alcotest.(check bool) "fixed" true (I.is_fixed_size file_attr);
  Alcotest.(check bool) "var field makes it variable" false
    (I.is_fixed_size (I.Record [ ("data", I.Var_bytes 100) ]))

let test_record_roundtrip () =
  let v =
    V.struct_ [ V.card 4096; V.int (-100); V.bytes (Bytes.of_string "hello.txt   ") ]
  in
  let encoded = V.encode file_attr v in
  Alcotest.(check int) "wire size" 20 (Bytes.length encoded);
  let decoded, consumed = V.decode file_attr encoded ~off:0 in
  Alcotest.(check bool) "equal" true (V.equal v decoded);
  Alcotest.(check int) "consumed" 20 consumed

let test_record_nested_roundtrip () =
  let ty = I.Record [ ("inner", file_attr); ("flag", I.Bool) ] in
  let v =
    V.struct_
      [
        V.struct_ [ V.card 1; V.int 2; V.bytes (Bytes.make 12 'x') ];
        V.bool true;
      ]
  in
  let decoded, _ = V.decode ty (V.encode ty v) ~off:0 in
  Alcotest.(check bool) "nested equal" true (V.equal v decoded)

let test_record_conformance () =
  Alcotest.(check bool) "field arity" true
    (Result.is_error (V.type_check file_attr (V.struct_ [ V.card 1 ])));
  Alcotest.(check bool) "field type" true
    (Result.is_error
       (V.type_check file_attr
          (V.struct_ [ V.bool true; V.int 0; V.bytes (Bytes.create 12) ])));
  (* conformance reaches inside: a negative card in a field is caught *)
  Alcotest.(check bool) "nested negative card" true
    (Result.is_error
       (V.type_check file_attr
          (V.struct_ [ V.card (-1); V.int 0; V.bytes (Bytes.create 12) ])))

let test_record_validate_empty_and_dup () =
  let empty = I.interface "X" [ I.proc "p" [ I.param "r" (I.Record []) ] ] in
  Alcotest.(check bool) "empty record" true (Result.is_error (I.validate empty));
  let dup =
    I.interface "X"
      [ I.proc "p" [ I.param "r" (I.Record [ ("a", I.Int32); ("a", I.Bool) ]) ] ]
  in
  Alcotest.(check bool) "dup fields" true (Result.is_error (I.validate dup))

let test_record_parses () =
  let i =
    P.parse
      "interface FS { proc stat(path: bytes[32]): record { size: card, \
       mtime: int, name: bytes[12] }; }"
  in
  let stat = Option.get (I.find_proc i "stat") in
  match stat.I.result with
  | Some (I.Record [ ("size", I.Card32); ("mtime", I.Int32); ("name", I.Fixed_bytes 12) ])
    ->
      ()
  | _ -> Alcotest.fail "record type not parsed"

let test_record_by_ref_parses () =
  let i =
    P.parse
      "interface D { proc put(entry: record { id: int, flag: bool } @ref); }"
  in
  let put = Option.get (I.find_proc i "put") in
  Alcotest.(check bool) "by ref" true (List.hd put.I.params).I.by_ref

(* --- Parser ----------------------------------------------------------------- *)

let test_parse_full_interface () =
  let i =
    P.parse
      {|
        # comment
        interface FS {
          proc null();
          proc add(a: int, b: int): int;
          proc write(path: bytes[32], data: varbytes[1024] @uninterpreted): card [astacks=3];
          proc wild(inout buf: bytes[16], out status: int) [complex];
          proc by_ref(rec: bytes[24] @ref): bool;
        }
      |}
  in
  Alcotest.(check string) "name" "FS" i.I.interface_name;
  Alcotest.(check int) "procs" 5 (List.length i.I.procs);
  let write = Option.get (I.find_proc i "write") in
  Alcotest.(check int) "astacks" 3 write.I.astacks;
  let data = List.nth write.I.params 1 in
  Alcotest.(check bool) "uninterpreted" true data.I.uninterpreted;
  let wild = Option.get (I.find_proc i "wild") in
  Alcotest.(check bool) "complex" true (wild.I.complexity = I.Complex);
  (match (List.nth wild.I.params 0).I.mode with
  | I.In_out -> ()
  | _ -> Alcotest.fail "inout expected");
  (match (List.nth wild.I.params 1).I.mode with
  | I.Out -> ()
  | _ -> Alcotest.fail "out expected");
  let by_ref = Option.get (I.find_proc i "by_ref") in
  Alcotest.(check bool) "by_ref" true (List.hd by_ref.I.params).I.by_ref

let expect_parse_error ?line src =
  match P.parse src with
  | exception P.Parse_error { line = l; _ } -> (
      match line with
      | Some expected -> Alcotest.(check int) "error line" expected l
      | None -> ())
  | _ -> Alcotest.fail "parse should have failed"

let test_parse_errors () =
  expect_parse_error "interfaze X {}";
  expect_parse_error "interface X { proc p() }";
  (* missing ; *)
  expect_parse_error "interface X { proc p(a: unknown); }";
  expect_parse_error "interface X { proc p(a: bytes); }";
  (* missing size *)
  expect_parse_error "interface X { proc p(); } trailing";
  expect_parse_error "interface X { proc p(a: int) [astacks=0]; }"
(* validation failure surfaces as parse error *)

let test_parse_error_line_numbers () =
  expect_parse_error ~line:3 "interface X {\n  proc ok();\n  proc bad(;\n}"

let test_parse_empty_interface () =
  let i = P.parse "interface Empty {}" in
  Alcotest.(check int) "no procs" 0 (List.length i.I.procs)

let test_parse_file_fixture () =
  (* the shipped example definition must stay parseable and generate
     stubs; dune runs tests from the build sandbox so resolve upward *)
  let candidates =
    [ "../examples/fileserver.idl"; "examples/fileserver.idl";
      "../../../examples/fileserver.idl" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> () (* fixture not visible from this sandbox; parse inline copy *)
  | Some path ->
      let i = P.parse_file path in
      Alcotest.(check string) "name" "FileServer" i.I.interface_name;
      Alcotest.(check int) "procs" 6 (List.length i.I.procs);
      let listings = C.generate i in
      Alcotest.(check int) "stubs for all" 6 (List.length listings);
      let read_dir =
        List.find (fun l -> l.C.listing_proc = "read_dir") listings
      in
      Alcotest.(check bool) "complex proc uses Modula2+" true
        (read_dir.C.language = `Modula2plus)

(* --- Codegen ----------------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let only = function [ x ] -> x | _ -> Alcotest.fail "expected one listing"

let test_codegen_simple_is_assembly () =
  let i = P.parse "interface A { proc add(a: int, b: int): int; }" in
  let l = only (C.generate i) in
  Alcotest.(check bool) "assembly" true (l.C.language = `Assembly);
  Alcotest.(check bool) "has trap" true (contains ~needle:"chmk" l.C.client_asm);
  Alcotest.(check bool) "remote-bit branch first" true
    (contains ~needle:"REMOTE" l.C.client_asm);
  Alcotest.(check bool) "server upcall stub" true
    (contains ~needle:"LRPC_RETURN" l.C.server_asm);
  Alcotest.(check bool) "counts instructions" true (C.total_instructions l > 10)

let test_codegen_complex_is_modula () =
  let i = P.parse "interface A { proc tree(a: bytes[64]) [complex]; }" in
  let l = only (C.generate i) in
  Alcotest.(check bool) "modula2+" true (l.C.language = `Modula2plus);
  Alcotest.(check bool) "marshal call" true
    (contains ~needle:"Marshal" l.C.client_asm);
  (* the paper's factor-of-four stub cost difference *)
  let simple =
    only (C.generate (P.parse "interface A { proc tree(a: bytes[64]); }"))
  in
  Alcotest.(check int) "4x instruction count"
    (4 * C.total_instructions simple)
    (C.total_instructions l)

let test_codegen_big_payload_block_move () =
  let i = P.parse "interface A { proc big(a: bytes[200]); }" in
  let l = only (C.generate i) in
  Alcotest.(check bool) "block move" true (contains ~needle:"movc3" l.C.client_asm)

(* --- Properties ----------------------------------------------------------------- *)

let prop_value_roundtrip =
  QCheck.Test.make ~name:"var-bytes encode/decode roundtrip" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 100))
    (fun s ->
      let ty = I.Var_bytes 100 in
      let v = V.bytes (Bytes.of_string s) in
      let encoded = V.encode ty v in
      let decoded, consumed = V.decode ty encoded ~off:0 in
      V.equal v decoded && consumed = 4 + String.length s)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int32 encode/decode roundtrip" ~count:300
    QCheck.(int_range (-0x8000_0000) 0x7FFF_FFFF)
    (fun x ->
      let encoded = V.encode I.Int32 (V.int x) in
      match V.decode I.Int32 encoded ~off:0 with
      | V.Int y, 4 -> x = y
      | _ -> false)

let prop_plan_slots_disjoint =
  QCheck.Test.make ~name:"planned slots are disjoint and ordered" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 64))
    (fun sizes ->
      let params =
        List.mapi (fun i n -> I.param (Printf.sprintf "p%d" i) (I.Fixed_bytes n)) sizes
      in
      let p = I.proc "f" params in
      let args = List.map (fun n -> V.bytes (Bytes.create n)) sizes in
      let plan = L.plan (L.of_proc p) ~args in
      let rec ok = function
        | a :: (b :: _ as rest) ->
            a.L.offset + a.L.size = b.L.offset && ok rest
        | [ last ] -> last.L.offset + last.L.size = plan.L.total_bytes
        | [] -> true
      in
      ok plan.L.in_slots)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_value_roundtrip; prop_int_roundtrip; prop_plan_slots_disjoint ]
  in
  Alcotest.run "lrpc_idl"
    [
      ( "types",
        [
          Alcotest.test_case "base sizes" `Quick test_base_sizes;
          Alcotest.test_case "fixed size procs" `Quick test_proc_fixed_size;
          Alcotest.test_case "validate duplicates" `Quick test_validate_rejects_duplicates;
          Alcotest.test_case "validate sizes" `Quick test_validate_rejects_bad_sizes;
          Alcotest.test_case "default astacks" `Quick test_default_astacks;
        ] );
      ( "values",
        [
          Alcotest.test_case "roundtrips" `Quick test_value_roundtrips;
          Alcotest.test_case "conformance" `Quick test_value_conformance;
          Alcotest.test_case "encode raises" `Quick test_value_encode_raises;
          Alcotest.test_case "corrupt length" `Quick test_decode_corrupt_var_length;
          Alcotest.test_case "encode into" `Quick test_encode_into;
          Alcotest.test_case "decode stops at stop" `Quick test_decode_value_stop;
          Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
        ] );
      ( "layout",
        [
          Alcotest.test_case "exact size" `Quick test_layout_exact_size;
          Alcotest.test_case "ethernet default" `Quick test_layout_ethernet_default;
          Alcotest.test_case "offsets" `Quick test_plan_offsets;
          Alcotest.test_case "arity" `Quick test_plan_arity;
          Alcotest.test_case "out reserved" `Quick test_plan_out_param_reserved;
          Alcotest.test_case "inout shares slot" `Quick test_plan_inout_shares_slot;
          Alcotest.test_case "var actual size" `Quick test_plan_var_size_actual;
          Alcotest.test_case "oversize" `Quick test_fits_oversize;
          Alcotest.test_case "immutable slots" `Quick test_immutable_copy_slots;
        ] );
      ( "records",
        [
          Alcotest.test_case "size+fixedness" `Quick test_record_size_and_fixedness;
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "nested" `Quick test_record_nested_roundtrip;
          Alcotest.test_case "conformance" `Quick test_record_conformance;
          Alcotest.test_case "validation" `Quick test_record_validate_empty_and_dup;
          Alcotest.test_case "parses" `Quick test_record_parses;
          Alcotest.test_case "by ref" `Quick test_record_by_ref_parses;
        ] );
      ( "parser",
        [
          Alcotest.test_case "full interface" `Quick test_parse_full_interface;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error lines" `Quick test_parse_error_line_numbers;
          Alcotest.test_case "empty" `Quick test_parse_empty_interface;
          Alcotest.test_case "fixture file" `Quick test_parse_file_fixture;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "simple assembly" `Quick test_codegen_simple_is_assembly;
          Alcotest.test_case "complex modula" `Quick test_codegen_complex_is_modula;
          Alcotest.test_case "block move" `Quick test_codegen_big_payload_block_move;
        ] );
      ("properties", qsuite);
    ]

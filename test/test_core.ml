open Lrpc_sim
open Lrpc_kernel
open Lrpc_core
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module L = Lrpc_idl.Layout

let cm = Cost_model.cvax_firefly

(* --- scaffolding --------------------------------------------------------- *)

type world = {
  engine : Engine.t;
  kernel : Kernel.t;
  rt : Api.t;
  server : Pdomain.t;
  client : Pdomain.t;
}

let arith_iface =
  I.interface "Arith"
    [
      I.proc "null" [];
      I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
      I.proc "big_in" [ I.param "buf" (I.Fixed_bytes 200) ];
      I.proc "big_in_out" [ I.param ~mode:I.In_out "buf" (I.Fixed_bytes 200) ];
      I.proc ~result:I.Card32 "write"
        [ I.param ~uninterpreted:true "buf" (I.Var_bytes 1024) ];
      I.proc ~result:I.Int32 "sum_var" [ I.param "buf" (I.Var_bytes 4096) ];
    ]

let arith_impls =
  [
    ("null", fun _ctx -> []);
    ( "add",
      fun ctx ->
        match Server_ctx.args ctx with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> Alcotest.fail "add: bad args" );
    ("big_in", fun _ctx -> []);
    ( "big_in_out",
      fun ctx ->
        match Server_ctx.arg ctx 0 with
        | V.Bytes b ->
            let out = Bytes.map (fun c -> Char.chr (Char.code c lxor 0xFF)) b in
            [ V.bytes out ]
        | _ -> Alcotest.fail "big_in_out: bad arg" );
    ( "write",
      fun ctx ->
        match Server_ctx.arg ctx 0 with
        | V.Bytes b -> [ V.card (Bytes.length b) ]
        | _ -> Alcotest.fail "write: bad arg" );
    ( "sum_var",
      fun ctx ->
        match Server_ctx.arg ctx 0 with
        | V.Bytes b ->
            let s = ref 0 in
            Bytes.iter (fun c -> s := !s + Char.code c) b;
            [ V.int !s ]
        | _ -> Alcotest.fail "sum_var: bad arg" );
  ]

let make_world ?config ?(processors = 1) ?(defensive = false) () =
  let engine = Engine.create ~processors cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init ?config kernel in
  let server = Kernel.create_domain kernel ~name:"arith" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore
    (Api.export rt ~domain:server
       ~options:{ Api.Options.default with defensive_copies = defensive }
       arith_iface ~impls:arith_impls);
  { engine; kernel; rt; server; client }

(* Run [body] in a client thread to completion; propagate test failures. *)
let in_client w body =
  ignore (Kernel.spawn w.kernel w.client ~name:"test-client" body);
  Engine.run w.engine;
  match Engine.failures w.engine with
  | [] -> ()
  | (th, exn) :: _ ->
      Alcotest.failf "thread %s died: %s" (Engine.thread_name th)
        (Printexc.to_string exn)

(* Measure steady-state per-call latency in simulated microseconds. *)
let measure_call ?(warmup = 3) ?(calls = 50) w ~proc ~args =
  let result = ref 0.0 in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      for _ = 1 to warmup do
        ignore (Api.call w.rt b ~proc args)
      done;
      let t0 = Engine.now w.engine in
      for _ = 1 to calls do
        ignore (Api.call w.rt b ~proc args)
      done;
      let t1 = Engine.now w.engine in
      result := Time.to_us (t1 - t0) /. float_of_int calls);
  !result

let check_us = Alcotest.(check (float 0.01))

(* --- functional basics ---------------------------------------------------- *)

let test_add_returns_sum () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      match Api.call w.rt b ~proc:"add" [ V.int 2; V.int 40 ] with
      | [ V.Int 42 ] -> ()
      | _ -> Alcotest.fail "wrong result")

let test_data_integrity_bytes () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      let payload = Bytes.init 200 (fun i -> Char.chr (i mod 256)) in
      match Api.call w.rt b ~proc:"big_in_out" [ V.bytes payload ] with
      | [ V.Bytes out ] ->
          Alcotest.(check int) "length" 200 (Bytes.length out);
          Bytes.iteri
            (fun i c ->
              Alcotest.(check int) "byte" (i lxor 0xFF land 0xFF) (Char.code c))
            out
      | _ -> Alcotest.fail "wrong result shape")

let test_variable_size_args () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      let payload = Bytes.make 100 '\007' in
      match Api.call w.rt b ~proc:"sum_var" [ V.bytes payload ] with
      | [ V.Int 700 ] -> ()
      | [ V.Int n ] -> Alcotest.failf "sum %d" n
      | _ -> Alcotest.fail "wrong result shape")

let test_null_has_no_outputs () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      Alcotest.(check int) "no outputs" 0
        (List.length (Api.call w.rt b ~proc:"null" [])))

let test_arity_mismatch_rejected () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      match Api.call w.rt b ~proc:"add" [ V.int 1 ] with
      | exception L.Arity_mismatch _ -> ()
      | _ -> Alcotest.fail "expected arity error")

let test_conformance_negative_card () =
  (* A client cannot crash a type-safe server by passing a bad CARDINAL:
     the check is folded into the copy (paper §3.5). Our 'write' returns a
     card; passing a Bytes arg of the wrong kind must also be caught. *)
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      match Api.call w.rt b ~proc:"big_in" [ V.int 3 ] with
      | exception V.Conformance_error _ -> ()
      | _ -> Alcotest.fail "expected conformance error")

let test_unknown_proc_rejected () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      match Api.call w.rt b ~proc:"frobnicate" [] with
      | exception Rt.Bad_binding _ -> ()
      | _ -> Alcotest.fail "expected Bad_binding")

let test_import_unknown_interface () =
  let w = make_world () in
  match Api.import w.rt ~domain:w.client ~interface:"NoSuch" with
  | exception Rt.Not_exported "NoSuch" -> ()
  | _ -> Alcotest.fail "expected Not_exported"

let test_import_waits_for_export () =
  let engine = Engine.create ~processors:2 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"late-server" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let got = ref false in
  ignore
    (Kernel.spawn kernel client ~home:0 (fun () ->
         let b =
           Api.import
             ~options:{ Api.Options.default with wait = true }
             rt ~domain:client ~interface:"Late"
         in
         (match Api.call rt b ~proc:"ping" [] with
         | [] -> got := true
         | _ -> ());
         ()));
  ignore
    (Kernel.spawn kernel server ~home:1 (fun () ->
         Engine.delay engine (Time.us 500);
         ignore
           (Api.export rt ~domain:server
              (I.interface "Late" [ I.proc "ping" [] ])
              ~impls:[ ("ping", fun _ -> []) ])));
  Engine.run engine;
  Alcotest.(check bool) "import completed after export" true !got

let test_nested_calls () =
  (* app -> midserver -> arith: one thread, two linkage records. *)
  let engine = Engine.create cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let arith = Kernel.create_domain kernel ~name:"arith" in
  let mid = Kernel.create_domain kernel ~name:"mid" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore (Api.export rt ~domain:arith arith_iface ~impls:arith_impls);
  let arith_binding = Api.import rt ~domain:mid ~interface:"Arith" in
  ignore
    (Api.export rt ~domain:mid
       (I.interface "Mid"
          [ I.proc ~result:I.Int32 "double_add" [ I.param "a" I.Int32; I.param "b" I.Int32 ] ])
       ~impls:
         [
           ( "double_add",
             fun ctx ->
               match Server_ctx.args ctx with
               | [ V.Int a; V.Int b ] -> (
                   match
                     Api.call rt arith_binding ~proc:"add" [ V.int a; V.int b ]
                   with
                   | [ V.Int s ] -> [ V.int (2 * s) ]
                   | _ -> Alcotest.fail "inner call failed")
               | _ -> Alcotest.fail "bad args" );
         ]);
  let ok = ref false in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let b = Api.import rt ~domain:client ~interface:"Mid" in
         match Api.call rt b ~proc:"double_add" [ V.int 3; V.int 4 ] with
         | [ V.Int 14 ] -> ok := true
         | _ -> ()));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "nested result" true !ok

let test_records_through_lrpc () =
  let engine = Engine.create cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"fs" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let iface =
    Lrpc_idl.Parser.parse
      "interface FS { proc stat(id: int): record { size: card, dirty: bool }; }"
  in
  ignore
    (Api.export rt ~domain:server iface
       ~impls:
         [
           ( "stat",
             fun ctx ->
               match Server_ctx.arg ctx 0 with
               | V.Int id -> [ V.struct_ [ V.card (id * 100); V.bool (id mod 2 = 1) ] ]
               | _ -> Alcotest.fail "bad arg" );
         ]);
  ignore
    (Kernel.spawn kernel client (fun () ->
         let b = Api.import rt ~domain:client ~interface:"FS" in
         match Api.call1 rt b ~proc:"stat" [ V.int 7 ] with
         | V.Struct [ V.Card 700; V.Bool true ] -> ()
         | v -> Alcotest.failf "bad record: %s" (Format.asprintf "%a" V.pp v)));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine)

let test_by_ref_record_param () =
  (* a by-ref record: the client stub copies the referent onto the
     A-stack; the server reads it in place through a recreated reference
     (paper §3.2) — observably, the data arrives and only one A copy
     happens *)
  let engine = Engine.create cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"db" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let iface =
    Lrpc_idl.Parser.parse
      "interface DB { proc put(entry: record { id: int, score: card } @ref): bool; }"
  in
  ignore
    (Api.export rt ~domain:server iface
       ~impls:
         [
           ( "put",
             fun ctx ->
               match Server_ctx.arg ctx 0 with
               | V.Struct [ V.Int id; V.Card score ] ->
                   [ V.bool (id = 9 && score = 500) ]
               | _ -> Alcotest.fail "bad record" );
         ]);
  let audit = Vm.audit_create () in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let b = Api.import rt ~domain:client ~interface:"DB" in
         match
           Api.call1
             ~options:{ Api.Options.default with audit = Some audit }
             rt b ~proc:"put"
             [ V.struct_ [ V.int 9; V.card 500 ] ]
         with
         | V.Bool true -> ()
         | _ -> Alcotest.fail "record not seen by server"));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  (* referent copied once onto the A-stack (A), result read back (F) *)
  Alcotest.(check (list string)) "labels" [ "A"; "F" ] (List.rev audit.Vm.labels)

let test_call1_rejects_multi_output () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      match Api.call1 w.rt b ~proc:"null" [] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "call1 on a no-output proc should fail")

let test_raw_arg_matches_encoding () =
  let w = make_world () in
  let seen = ref Bytes.empty in
  ignore
    (Api.export w.rt ~domain:(Kernel.create_domain w.kernel ~name:"raw")
       (I.interface "Raw" [ I.proc "peek" [ I.param "x" I.Int32 ] ])
       ~impls:
         [
           ( "peek",
             fun ctx ->
               seen := Server_ctx.raw_arg ctx 0;
               [] );
         ]);
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Raw" in
      ignore (Api.call w.rt b ~proc:"peek" [ V.int 0x01020304 ]));
  Alcotest.(check bytes) "little-endian wire form"
    (V.encode I.Int32 (V.int 0x01020304))
    !seen

(* Server procedures decode their arguments in place: [args] and [arg]
   hand them exactly the caller's values, and the access check still
   comes first — with the A-stack unmapped from the server, both raise
   the peek error. *)
let test_server_sees_caller_values () =
  let engine = Engine.create ~processors:1 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"arith" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let seen = ref [] and denied = ref [] in
  let refused ctx =
    Vm.unmap_from ctx.Rt.sc_region server;
    let expect =
      Printf.sprintf "peek: domain arith has no access to region %s"
        ctx.Rt.sc_region.Vm.region_name
    in
    (match Server_ctx.arg ctx 0 with
    | exception Vm.Protection_violation m -> denied := (m = expect) :: !denied
    | _ -> Alcotest.fail "arg read an unmapped A-stack");
    (match Server_ctx.args ctx with
    | exception Vm.Protection_violation m -> denied := (m = expect) :: !denied
    | _ -> Alcotest.fail "args read an unmapped A-stack");
    Vm.map_into ctx.Rt.sc_region server
  in
  let impls =
    ( "add",
      fun ctx ->
        let args = Server_ctx.args ctx in
        seen := args :: !seen;
        refused ctx;
        match args with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> Alcotest.fail "add: bad args" )
    :: ( "big_in_out",
         fun ctx ->
           let v = Server_ctx.arg ctx 0 in
           seen := [ v ] :: !seen;
           refused ctx;
           [ v ] )
    :: List.filter
         (fun (name, _) -> name <> "add" && name <> "big_in_out")
         arith_impls
  in
  ignore (Api.export rt ~domain:server arith_iface ~impls);
  let add_args = [ V.int 123_456; V.int (-7) ] in
  let payload = Bytes.init 200 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let b = Api.import rt ~domain:client ~interface:"Arith" in
         ignore (Api.call rt b ~proc:"add" add_args);
         ignore (Api.call rt b ~proc:"big_in_out" [ V.bytes payload ])));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  let same = List.for_all2 V.equal in
  (match List.rev !seen with
  | [ a; b ] ->
      Alcotest.(check bool) "add sees the caller's ints" true (same a add_args);
      Alcotest.(check bool) "big_in_out sees the caller's bytes" true
        (same b [ V.bytes payload ])
  | _ -> Alcotest.fail "expected two calls");
  Alcotest.(check (list bool)) "peek errors, word for word" [ true; true; true; true ]
    !denied

(* --- security ------------------------------------------------------------- *)

let test_forged_binding_detected () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      let forged = { b with Rt.bid = b.Rt.bid } in
      (* same id, different object: the kernel compares against the one
         it issued *)
      match Api.call w.rt forged ~proc:"null" [] with
      | exception Rt.Bad_binding _ -> ()
      | _ -> Alcotest.fail "forged binding accepted")

let test_foreign_domain_binding_rejected () =
  let w = make_world () in
  let thief = Kernel.create_domain w.kernel ~name:"thief" in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  ignore
    (Kernel.spawn w.kernel thief (fun () ->
         (* The thief is stopped either by the A-stack mapping (it cannot
            even write the arguments) or, for argument-free calls, by the
            kernel's caller check at the trap. *)
         match Api.call w.rt b ~proc:"null" [] with
         | exception Rt.Bad_binding _ -> ()
         | exception Vm.Protection_violation _ -> ()
         | _ -> Alcotest.fail "stolen binding accepted"));
  Engine.run w.engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures w.engine)

let test_third_party_cannot_read_astack () =
  let w = make_world () in
  let snoop = Kernel.create_domain w.kernel ~name:"snoop" in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  let pb = List.assoc "add" b.Rt.b_procs in
  let astack = List.hd pb.Rt.pb_pool.Rt.ap_all in
  Alcotest.check_raises "protection violation"
    (Vm.Protection_violation
       (Printf.sprintf "peek: domain %s has no access to region %s" "snoop"
          astack.Rt.a_region.Vm.region_name))
    (fun () -> ignore (Vm.peek ~by:snoop astack.Rt.a_region ~off:0 ~len:4))

let test_astack_pairwise_shared () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  let pb = List.assoc "add" b.Rt.b_procs in
  let astack = List.hd pb.Rt.pb_pool.Rt.ap_all in
  Alcotest.(check bool) "client mapped" true
    (Vm.accessible astack.Rt.a_region w.client);
  Alcotest.(check bool) "server mapped" true
    (Vm.accessible astack.Rt.a_region w.server);
  Alcotest.(check bool) "linkage is kernel-only" false
    (Vm.accessible astack.Rt.a_linkage.Rt.l_region w.client)

let test_mutation_hazard_without_defensive_copies () =
  (* §3.5: with arguments living in shared memory, a client can change
     them after the transfer; servers that interpret arguments twice see
     the change. *)
  let w = make_world () in
  let seen = ref [] in
  ignore
    (Api.export w.rt ~domain:w.server
       (I.interface "Sneaky" [ I.proc "peek_twice" [ I.param "x" I.Int32 ] ])
       ~impls:
         [
           ( "peek_twice",
             fun ctx ->
               let first = Server_ctx.arg ctx 0 in
               (* the client's accomplice mutates the shared A-stack
                  between the two reads *)
               let region = ctx.Rt.sc_region in
               Vm.poke ~by:(Server_ctx.client ctx) region ~off:0
                 (V.encode I.Int32 (V.int 666));
               let second = Server_ctx.arg ctx 0 in
               seen := [ first; second ];
               [] );
         ]);
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Sneaky" in
      ignore (Api.call w.rt b ~proc:"peek_twice" [ V.int 1 ]));
  match !seen with
  | [ V.Int 1; V.Int 666 ] -> ()
  | _ -> Alcotest.fail "mutation was not observed through shared memory"

(* --- copy accounting (Table 3 ingredients) -------------------------------- *)

let copy_labels audit = List.rev audit.Vm.labels

let audited audit = { Api.Options.default with Api.Options.audit = Some audit }

let test_copy_labels_trusting () =
  let w = make_world () in
  let audit = Vm.audit_create () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      ignore
        (Api.call ~options:(audited audit) w.rt b ~proc:"add"
           [ V.int 1; V.int 2 ]));
  (* two A copies on call (two args), one F on return (result) *)
  Alcotest.(check (list string)) "labels" [ "A"; "A"; "F" ] (copy_labels audit)

let test_copy_labels_defensive () =
  let w = make_world () ~defensive:true in
  let audit = Vm.audit_create () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      ignore
        (Api.call ~options:(audited audit) w.rt b ~proc:"add"
           [ V.int 1; V.int 2 ]));
  Alcotest.(check (list string)) "labels"
    [ "A"; "A"; "E"; "E"; "F" ]
    (copy_labels audit)

let test_uninterpreted_skips_defensive_copy () =
  let w = make_world () ~defensive:true in
  let audit = Vm.audit_create () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      ignore
        (Api.call ~options:(audited audit) w.rt b ~proc:"write"
           [ V.bytes (Bytes.make 64 'x') ]));
  (* write's buffer is @uninterpreted: A on call, F for the card result,
     and crucially no E even under a defensive export. *)
  Alcotest.(check (list string)) "labels" [ "A"; "F" ] (copy_labels audit)

let test_null_copies_nothing () =
  let w = make_world () in
  let audit = Vm.audit_create () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      ignore (Api.call ~options:(audited audit) w.rt b ~proc:"null" []));
  Alcotest.(check int) "no copies" 0 audit.Vm.copy_ops

(* --- latency (Table 4 & 5) ------------------------------------------------ *)

let test_null_latency_157us () =
  let w = make_world () in
  check_us "Null" 157.0 (measure_call w ~proc:"null" ~args:[])

let test_add_latency () =
  let w = make_world () in
  check_us "Add" 164.005 (measure_call w ~proc:"add" ~args:[ V.int 1; V.int 2 ])

let test_bigin_latency () =
  let w = make_world () in
  check_us "BigIn" 192.067
    (measure_call w ~proc:"big_in" ~args:[ V.bytes (Bytes.make 200 'a') ])

let test_biginout_latency () =
  let w = make_world () in
  check_us "BigInOut" 227.134
    (measure_call w ~proc:"big_in_out" ~args:[ V.bytes (Bytes.make 200 'a') ])

let test_null_mp_latency_125us () =
  let w = make_world ~processors:2 () in
  Kernel.set_domain_caching w.kernel true;
  check_us "Null MP" 125.0 (measure_call ~warmup:5 w ~proc:"null" ~args:[])

let test_tlb_misses_43_per_call () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      for _ = 1 to 3 do
        ignore (Api.call w.rt b ~proc:"null" [])
      done;
      let before = Engine.total_tlb_misses w.engine in
      for _ = 1 to 10 do
        ignore (Api.call w.rt b ~proc:"null" [])
      done;
      let after = Engine.total_tlb_misses w.engine in
      Alcotest.(check int) "43 per call" (43 * 10) (after - before))

let test_breakdown_matches_table5 () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      for _ = 1 to 3 do
        ignore (Api.call w.rt b ~proc:"null" [])
      done;
      Engine.reset_breakdown w.engine;
      for _ = 1 to 10 do
        ignore (Api.call w.rt b ~proc:"null" [])
      done;
      let bk = Engine.breakdown w.engine in
      let per_call cat =
        match List.assoc_opt cat bk with
        | Some t -> Time.to_us t /. 10.0
        | None -> 0.0
      in
      check_us "procedure call" 7.0 (per_call Category.Proc_call);
      check_us "two traps" 36.0 (per_call Category.Trap);
      check_us "vm reloads" 27.3 (per_call Category.Context_switch);
      check_us "tlb misses" 38.7 (per_call Category.Tlb_miss);
      check_us "stubs"
        (10.0 +. 5.0 +. 2.0 +. 1.0)
        (per_call Category.Stub_client +. per_call Category.Stub_server);
      check_us "kernel transfer" 27.0 (per_call Category.Kernel_transfer);
      check_us "astack queue locks" 3.0 (per_call Category.Lock);
      let total = List.fold_left (fun acc (_, t) -> acc + t) 0 bk in
      check_us "sums to 157" 157.0 (Time.to_us total /. 10.0))

(* --- A-stack exhaustion (§5.2) --------------------------------------------- *)

let slow_iface =
  I.interface "Slow" [ I.proc ~astacks:2 "slow" [ I.param "ms" I.Int32 ] ]

let slow_impls engine =
  [
    ( "slow",
      fun ctx ->
        match Server_ctx.arg ctx 0 with
        | V.Int ms ->
            Engine.delay ~category:Category.Server_work engine (Time.ms ms);
            []
        | _ -> Alcotest.fail "bad arg" );
  ]

let run_exhaustion ~policy =
  let config = { Rt.default_config with astack_exhaustion = policy } in
  let engine = Engine.create ~processors:4 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init ~config kernel in
  let server = Kernel.create_domain kernel ~name:"slow" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore (Api.export rt ~domain:server slow_iface ~impls:(slow_impls engine));
  let b = Api.import rt ~domain:client ~interface:"Slow" in
  let done_count = ref 0 in
  for i = 0 to 2 do
    ignore
      (Kernel.spawn kernel client ~home:i ~name:(Printf.sprintf "c%d" i)
         (fun () ->
           ignore (Api.call rt b ~proc:"slow" [ V.int 5 ]);
           incr done_count))
  done;
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check int) "all calls completed" 3 !done_count;
  let pb = List.assoc "slow" b.Rt.b_procs in
  List.length pb.Rt.pb_pool.Rt.ap_all

(* The kernel checks an A-stack's ownership by its pool: one checked
   out of another procedure's pool is refused under either exhaustion
   policy, and under `Allocate an extra A-stack belongs to the pool
   that allocated it and to no other. *)
let test_astack_validate_foreign () =
  List.iter
    (fun policy ->
      let config = { Rt.default_config with astack_exhaustion = policy } in
      let w = make_world ~config () in
      let foreign = "A-stack does not belong to this procedure" in
      in_client w (fun () ->
          let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
          let add = List.assoc "add" b.Rt.b_procs
          and null = List.assoc "null" b.Rt.b_procs in
          let take () = Astack.checkout w.rt b add in
          let own = take () in
          Astack.validate w.rt add own;
          Alcotest.check_raises "another procedure's A-stack" (Rt.Bad_binding foreign)
            (fun () -> Astack.validate w.rt null own);
          (match policy with
          | `Allocate ->
              let held =
                List.init (List.length add.Rt.pb_pool.Rt.ap_all - 1) (fun _ -> take ())
              in
              let extra = take () in
              Alcotest.(check bool) "an extra" false extra.Rt.a_primary;
              Astack.validate w.rt add extra;
              Alcotest.check_raises "another procedure's extra"
                (Rt.Bad_binding foreign) (fun () -> Astack.validate w.rt null extra);
              List.iter (Astack.checkin w.rt add) (extra :: held)
          | `Wait -> ());
          Astack.checkin w.rt add own))
    [ `Wait; `Allocate ]

let test_astack_exhaustion_wait () =
  let total = run_exhaustion ~policy:`Wait in
  Alcotest.(check int) "no extra A-stacks" 2 total

let test_astack_exhaustion_allocate () =
  let total = run_exhaustion ~policy:`Allocate in
  Alcotest.(check int) "one extra A-stack" 3 total

(* The default shard layout: min(processors, A-stacks) shards, each
   A-stack homed on one of them, and every A-stack back on a free list
   once the callers (one per processor) are done. *)
let test_astack_shard_layout () =
  List.iter
    (fun (cpus, astacks, shards) ->
      let engine = Engine.create ~processors:cpus cm in
      let kernel = Kernel.boot engine in
      let rt = Api.init kernel in
      let server = Kernel.create_domain kernel ~name:"srv" in
      let client = Kernel.create_domain kernel ~name:"app" in
      ignore
        (Api.export rt ~domain:server
           (I.interface "Layout" [ I.proc ~astacks "null" [] ])
           ~impls:[ ("null", fun _ -> []) ]);
      let b = Api.import rt ~domain:client ~interface:"Layout" in
      for i = 1 to cpus do
        ignore
          (Kernel.spawn kernel client ~name:(Printf.sprintf "c%d" i) (fun () ->
               for _ = 1 to 20 do
                 ignore (Api.call rt b ~proc:"null" [])
               done))
      done;
      Engine.run engine;
      Engine.check_failures engine;
      let pool = (List.assoc "null" b.Rt.b_procs).Rt.pb_pool in
      let what = Printf.sprintf "%d CPUs, %d A-stacks: " cpus astacks in
      Alcotest.(check int) (what ^ "shards") shards
        (Array.length pool.Rt.ap_shards);
      Alcotest.(check int) (what ^ "population") astacks
        (List.length pool.Rt.ap_all);
      List.iter
        (fun a ->
          Alcotest.(check bool) (what ^ "home shard in range") true
            (a.Rt.a_shard >= 0 && a.Rt.a_shard < shards))
        pool.Rt.ap_all;
      Alcotest.(check int) (what ^ "all free after the run") astacks
        (Astack.free_count pool))
    [ (1, 16, 1); (4, 16, 4); (8, 16, 8); (8, 4, 4) ]

(* --- out-of-band (§5.2) ----------------------------------------------------- *)

let test_oversized_args_go_out_of_band () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      (* sum_var's A-stack is the 1500-byte Ethernet default; 4000 bytes
         must take the out-of-band path and still work. *)
      let payload = Bytes.make 4000 '\001' in
      match Api.call w.rt b ~proc:"sum_var" [ V.bytes payload ] with
      | [ V.Int 4000 ] -> ()
      | [ V.Int n ] -> Alcotest.failf "bad sum %d" n
      | _ -> Alcotest.fail "bad shape")

let test_oob_is_slower () =
  let w = make_world () in
  let small = measure_call w ~proc:"sum_var" ~args:[ V.bytes (Bytes.make 100 'x') ] in
  let w2 = make_world () in
  let big =
    measure_call w2 ~proc:"sum_var" ~args:[ V.bytes (Bytes.make 4000 'x') ]
  in
  Alcotest.(check bool) "oob pays the overhead" true
    (big -. small > Time.to_us Rt.oob_overhead)

(* --- A-stack sharing (§3.1) --------------------------------------------------- *)

let total_astacks b =
  (* distinct pools only: shared pools appear under several procedures *)
  let pools =
    List.fold_left
      (fun acc (_, pb) ->
        if List.memq pb.Rt.pb_pool acc then acc else pb.Rt.pb_pool :: acc)
      [] b.Rt.b_procs
  in
  List.fold_left (fun acc p -> acc + List.length p.Rt.ap_all) 0 pools

let test_astack_sharing_reduces_storage () =
  let without = make_world () in
  let b1 = Api.import without.rt ~domain:without.client ~interface:"Arith" in
  let with_sharing =
    make_world ~config:{ Rt.default_config with Rt.astack_sharing = true } ()
  in
  let b2 =
    Api.import with_sharing.rt ~domain:with_sharing.client ~interface:"Arith"
  in
  (* six procedures x five A-stacks each, vs one pool per size class *)
  Alcotest.(check int) "private pools" 30 (total_astacks b1);
  Alcotest.(check int) "shared pools" 10 (total_astacks b2);
  (* same-page-count procedures share a pool; different sizes do not *)
  let pool p = (List.assoc p b2.Rt.b_procs).Rt.pb_pool in
  Alcotest.(check bool) "null and add share" true (pool "null" == pool "add");
  Alcotest.(check bool) "null and big_in share" true
    (pool "null" == pool "big_in");
  Alcotest.(check bool) "null and write differ" false
    (pool "null" == pool "write");
  Alcotest.(check bool) "write and sum_var share" true
    (pool "write" == pool "sum_var")

let test_astack_sharing_still_correct () =
  let w = make_world ~config:{ Rt.default_config with Rt.astack_sharing = true } () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      (* interleave procedures that share a pool *)
      for i = 1 to 20 do
        (match Api.call w.rt b ~proc:"add" [ V.int i; V.int i ] with
        | [ V.Int s ] -> Alcotest.(check int) "sum" (2 * i) s
        | _ -> Alcotest.fail "add failed");
        ignore (Api.call w.rt b ~proc:"null" []);
        match
          Api.call w.rt b ~proc:"big_in_out" [ V.bytes (Bytes.make 200 'z') ]
        with
        | [ V.Bytes out ] -> Alcotest.(check int) "len" 200 (Bytes.length out)
        | _ -> Alcotest.fail "big_in_out failed"
      done)

let test_astack_sharing_latency_unchanged () =
  let w = make_world ~config:{ Rt.default_config with Rt.astack_sharing = true } () in
  check_us "null still 157" 157.0 (measure_call w ~proc:"null" ~args:[])

let test_astack_sharing_soft_limit () =
  (* two procedures share a 2-A-stack pool: three concurrent slow calls
     mean somebody waits, but everyone completes *)
  let config =
    {
      Rt.default_config with
      Rt.astack_sharing = true;
      astack_exhaustion = `Wait;
    }
  in
  let engine = Engine.create ~processors:4 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init ~config kernel in
  let server = Kernel.create_domain kernel ~name:"slow" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let iface =
    I.interface "Slow2"
      [
        I.proc ~astacks:2 "slow_a" [ I.param "ms" I.Int32 ];
        I.proc ~astacks:2 "slow_b" [ I.param "ms" I.Int32 ];
      ]
  in
  let slow _name ctx =
    match Server_ctx.arg ctx 0 with
    | V.Int ms ->
        Server_ctx.work ctx (Time.ms ms);
        []
    | _ -> Alcotest.fail "bad arg"
  in
  ignore
    (Api.export rt ~domain:server iface
       ~impls:[ ("slow_a", slow "a"); ("slow_b", slow "b") ]);
  let b = Api.import rt ~domain:client ~interface:"Slow2" in
  Alcotest.(check int) "one shared pool of 2" 2 (total_astacks b);
  let finished = ref 0 in
  List.iteri
    (fun i proc ->
      ignore
        (Kernel.spawn kernel client ~home:i (fun () ->
             ignore (Api.call rt b ~proc [ V.int 5 ]);
             incr finished)))
    [ "slow_a"; "slow_b"; "slow_a" ];
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check int) "all three completed" 3 !finished

(* --- E-stacks (§3.2) -------------------------------------------------------- *)

let test_estacks_lazy_by_default () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  let total = ref 0 and free = ref 0 in
  Estack.pool_stats w.rt ~server:w.server ~total ~free;
  Alcotest.(check int) "no estacks before first call" 0 !total;
  in_client w (fun () -> ignore (Api.call w.rt b ~proc:"null" []));
  Estack.pool_stats w.rt ~server:w.server ~total ~free;
  Alcotest.(check int) "exactly one estack after one call" 1 !total

let test_estacks_static_preallocates () =
  let config = { Rt.default_config with estack_policy = `Static } in
  let w = make_world ~config () in
  ignore (Api.import w.rt ~domain:w.client ~interface:"Arith" : Rt.binding);
  let total = ref 0 and free = ref 0 in
  Estack.pool_stats w.rt ~server:w.server ~total ~free;
  (* six procedures x five A-stacks each = 30 E-stacks up front *)
  Alcotest.(check int) "static preallocation" 30 !total

let test_estack_reclaim () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  in_client w (fun () ->
      ignore (Api.call w.rt b ~proc:"null" []);
      ignore (Api.call w.rt b ~proc:"add" [ V.int 1; V.int 2 ]));
  let total = ref 0 and free = ref 0 in
  Estack.pool_stats w.rt ~server:w.server ~total ~free;
  Alcotest.(check int) "two associated" 2 !total;
  Alcotest.(check int) "none free" 0 !free;
  let n =
    Estack.reclaim w.rt ~server:w.server
      ~keep_newer_than:(Engine.now w.engine)
  in
  Alcotest.(check int) "both reclaimed" 2 n;
  Estack.pool_stats w.rt ~server:w.server ~total ~free;
  Alcotest.(check int) "both free" 2 !free

let test_estack_reclaim_under_memory_pressure () =
  (* A server whose address space only fits two E-stacks: the third
     association must reclaim an idle one instead of failing — the exact
     motivation for lazy management (paper §3.2). *)
  let engine = Engine.create cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"tight" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore (Api.export rt ~domain:server arith_iface ~impls:arith_impls);
  let b = Api.import rt ~domain:client ~interface:"Arith" in
  in_client { engine; kernel; rt; server; client } (fun () ->
      (* First call creates the server-side footprint regions; then clamp
         the budget to current usage + two E-stacks (40 pages each). *)
      ignore (Api.call rt b ~proc:"null" []);
      server.Pdomain.page_limit <- server.Pdomain.pages_allocated + 41;
      ignore (Api.call rt b ~proc:"add" [ V.int 1; V.int 2 ]);
      (* two E-stacks now exist; a third distinct procedure forces a
         reclaim of the least-recently-used association *)
      ignore (Api.call rt b ~proc:"big_in" [ V.bytes (Bytes.make 200 'x') ]);
      let total = ref 0 and free = ref 0 in
      Estack.pool_stats rt ~server ~total ~free;
      Alcotest.(check int) "pool capped at two" 2 !total;
      (* and the reclaimed-from procedure still works afterwards *)
      match Api.call rt b ~proc:"null" [] with
      | [] -> ()
      | _ -> Alcotest.fail "null after reclaim")

(* With no free E-stack and no room for a fresh one, [associate]
   reclaims. A reclaim that frees nothing raises [Out_of_memory]; on a
   terminated server, [Domain_terminated] comes first, as from the
   allocation the budget check stands in for. *)
let test_estack_associate_refusals () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  let astack =
    List.hd (List.assoc "null" b.Rt.b_procs).Rt.pb_pool.Rt.ap_all
  in
  w.server.Pdomain.page_limit <- w.server.Pdomain.pages_allocated;
  Alcotest.check_raises "nothing to reclaim" Out_of_memory (fun () ->
      ignore (Estack.associate w.rt ~server:w.server astack));
  Kernel.terminate_domain w.kernel w.server;
  Alcotest.check_raises "terminated server" (Kernel.Domain_terminated "arith")
    (fun () -> ignore (Estack.associate w.rt ~server:w.server astack));
  Alcotest.(check bool) "still unassociated" true (astack.Rt.a_estack = None)

(* A reclaim never takes the E-stack of a call still in the server
   (paper §3.2 reclaims only E-stacks not in use). The server's budget
   holds two E-stacks. One thread calls [a], then sits in [hold]; while
   it is there, a second thread calls [b] and then [a] again, and each
   of those calls needs an E-stack that only a reclaim can give. The
   held call keeps its E-stack, and neither reclaiming call gets it. *)
let test_estack_reclaim_skips_calls_in_flight () =
  let engine = Engine.create cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"tight" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let iface = I.interface "Hold" [ I.proc "a" []; I.proc "hold" []; I.proc "b" [] ] in
  let impls =
    [
      ("a", fun _ -> []);
      ("b", fun _ -> []);
      ( "hold",
        fun _ ->
          Engine.sleep_until engine (Time.add (Engine.now engine) (Time.ms 5));
          [] );
    ]
  in
  ignore (Api.export rt ~domain:server iface ~impls);
  let b = Api.import rt ~domain:client ~interface:"Hold" in
  let estack_of proc =
    let pool = (List.assoc proc b.Rt.b_procs).Rt.pb_pool in
    List.filter_map (fun a -> a.Rt.a_estack) pool.Rt.ap_all
  in
  (* Observed by the reclaiming thread while [hold] is in the server,
     checked once the run is over. *)
  let got_held = ref [] and hold_kept = ref false and still_assoc = ref false in
  ignore
    (Kernel.spawn kernel client ~name:"holder" (fun () ->
         ignore (Api.call rt b ~proc:"a" []);
         (* Room for exactly one more E-stack: [hold]'s. *)
         server.Pdomain.page_limit <- server.Pdomain.pages_allocated + 40;
         ignore (Api.call rt b ~proc:"hold" [])));
  ignore
    (Kernel.spawn kernel client ~name:"reclaimer" (fun () ->
         Engine.sleep_until engine (Time.ms 1);
         match estack_of "hold" with
         | [ es_hold ] ->
             List.iter
               (fun proc ->
                 ignore (Api.call rt b ~proc []);
                 if List.exists (fun es -> es == es_hold) (estack_of proc) then
                   got_held := proc :: !got_held)
               [ "b"; "a" ];
             hold_kept :=
               (match estack_of "hold" with [ es ] -> es == es_hold | _ -> false);
             still_assoc :=
               (match es_hold.Rt.es_assoc with
               | Some a -> a.Rt.a_linkage.Rt.l_in_use
               | None -> false)
         | _ -> ()));
  Engine.run engine;
  Alcotest.(check int) "no failures" 0 (List.length (Engine.failures engine));
  Alcotest.(check (list string)) "no reclaiming call got the held E-stack" []
    !got_held;
  Alcotest.(check bool) "hold kept its E-stack" true !hold_kept;
  Alcotest.(check bool) "still associated with hold's A-stack" true !still_assoc;
  let total = ref 0 and free = ref 0 in
  Estack.pool_stats rt ~server ~total ~free;
  Alcotest.(check int) "pool capped at two" 2 !total

(* When lazy association gives an A-stack another E-stack, its call-side
   footprint holds the new E-stack's working set where the old one's
   was, and every other page stays put: the footprint a fresh build for
   the new E-stack would give. The server has room for two E-stacks:
   [null] takes the first, [add] the second, [big_in] reclaims both and
   takes [null]'s, so [null]'s next call gets [add]'s old one. *)
let test_footprint_follows_estack () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
  let built proc =
    let pool = (List.assoc proc b.Rt.b_procs).Rt.pb_pool in
    match
      List.filter
        (fun a -> Tlb.footprint_length a.Rt.a_footprint > 0)
        pool.Rt.ap_all
    with
    | [ a ] -> a
    | _ -> Alcotest.failf "%s: not exactly one footprint" proc
  in
  let estack a =
    match a.Rt.a_estack with
    | Some es -> es
    | None -> Alcotest.fail "no E-stack"
  in
  in_client w (fun () ->
      ignore (Api.call w.rt b ~proc:"null" []);
      let a = built "null" in
      let before = Tlb.footprint_pages a.Rt.a_footprint and es0 = estack a in
      w.server.Pdomain.page_limit <- w.server.Pdomain.pages_allocated + 40;
      ignore (Api.call w.rt b ~proc:"add" [ V.int 1; V.int 2 ]);
      ignore (Api.call w.rt b ~proc:"big_in" [ V.bytes (Bytes.make 200 'x') ]);
      ignore (Api.call w.rt b ~proc:"null" []);
      let es1 = estack a in
      Alcotest.(check bool) "null got another E-stack" false (es1 == es0);
      let old_pages = es0.Rt.es_region.Vm.pages
      and new_pages = es1.Rt.es_region.Vm.pages in
      let expected =
        Array.map
          (fun p ->
            let k = ref (-1) in
            Array.iteri (fun i q -> if i < 4 && q = p then k := i) old_pages;
            if !k >= 0 then new_pages.(!k) else p)
          before
      in
      Alcotest.(check (array int)) "E-stack pages replaced in place" expected
        (Tlb.footprint_pages a.Rt.a_footprint);
      Alcotest.(check int) "25 pages" 25
        (Tlb.footprint_length a.Rt.a_footprint);
      Alcotest.(check int) "25 distinct after the patch" 25
        (Tlb.footprint_distinct a.Rt.a_footprint))

let test_global_kernel_lock_serial_latency_unchanged () =
  (* the A4 counterfactual only hurts under contention; serially it still
     measures 157 (the lock is free to take) *)
  let w =
    make_world ~config:{ Rt.default_config with Rt.kernel_lock = `Global } ()
  in
  check_us "157 with global lock, serial" 157.0
    (measure_call w ~proc:"null" ~args:[])

(* --- charge tails on the call path ----------------------------------------

   Back-to-back charges of the call path run as one delay with a tail
   (Engine.delay_then, Engine.switch_then_touch): the procedure call
   into the client stub, each trap into the kernel's transfer work, and
   each VM reload into its TLB refill. With a timer queued every
   microsecond no delay runs ahead, so a caller is resumed once per
   slice, less one per merged pair. The slices themselves, their order
   and their times are the same either way (test_sim's tail property). *)

let slices_traced tr =
  let n = ref 0 in
  Lrpc_obs.Trace.iter tr (fun ev ->
      match ev.Lrpc_obs.Trace.kind with
      | Lrpc_obs.Event.Slice _ -> incr n
      | _ -> ());
  !n

(* (slices, resumptions) of each of the caller's first [calls] Null
   calls. *)
let null_call_resumptions ?config ~calls () =
  let w = make_world ?config () in
  let tr = Lrpc_obs.Trace.create ~capacity:4096 () in
  Engine.set_tracer w.engine (Some tr);
  for k = 1 to 2_000 do
    ignore (Engine.at w.engine (Time.us k) ignore)
  done;
  let per_call = ref [] in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
      for _ = 1 to calls do
        let s0 = slices_traced tr and r0 = Engine.resumptions w.engine in
        ignore (Api.call w.rt b ~proc:"null" []);
        per_call :=
          (slices_traced tr - s0, Engine.resumptions w.engine - r0) :: !per_call
      done);
  Alcotest.(check int) "trace ring held every event" 0
    (Lrpc_obs.Trace.dropped tr);
  List.rev !per_call

(* Every call merges five pairs: the procedure call and the stub's
   entry, each trap and the kernel's work, and each VM reload and its
   TLB refill. The first call builds its footprints, allocating the
   server's and then the client's code and stack pages, before each
   switch, so its reloads merge too; its extra slice is the fresh
   E-stack's allocation. *)
let test_every_call_merges_reloads () =
  let per_call = null_call_resumptions ~calls:3 () in
  Alcotest.(check (list (pair int int)))
    "(slices, resumptions) per call"
    [ (16, 11); (15, 10); (15, 10) ]
    per_call;
  List.iter
    (fun (slices, resumptions) ->
      Alcotest.(check int) "five merged pairs" 5 (slices - resumptions))
    per_call

(* Under the A4 global kernel lock the lock is taken between each trap
   and the kernel's work, so neither trap merges. *)
let test_global_lock_unmerged_trap () =
  match
    null_call_resumptions
      ~config:{ Rt.default_config with Rt.kernel_lock = `Global }
      ~calls:2 ()
  with
  | [ _; (slices, resumptions) ] ->
      Alcotest.(check int) "procedure call and the two reloads merge" 3
        (slices - resumptions)
  | _ -> Alcotest.fail "two calls expected"

(* A lookup that fails between the procedure call and the stub's entry
   raises after the procedure call alone: an unknown procedure, and a
   caller in a domain the kernel never registered. *)
let test_failed_lookup_charges_call_alone () =
  let w = make_world () in
  let b = ref None in
  in_client w (fun () ->
      b := Some (Api.import w.rt ~domain:w.client ~interface:"Arith"));
  let b = Option.get !b in
  let attempt what spawn proc =
    Engine.reset_breakdown w.engine;
    let raised = ref None and elapsed = ref 0 in
    ignore
      (spawn (fun () ->
           let t0 = Engine.now w.engine in
           (try ignore (Api.call w.rt b ~proc [])
            with Rt.Bad_binding m -> raised := Some m);
           elapsed := Time.sub (Engine.now w.engine) t0));
    Engine.run w.engine;
    Alcotest.(check bool) (what ^ ": Bad_binding raised") true (!raised <> None);
    check_us (what ^ ": elapsed") 7.0 (Time.to_us !elapsed);
    Alcotest.(check (list (pair string int)))
      (what ^ ": charged")
      [ ("proc_call", cm.Lrpc_sim.Cost_model.proc_call) ]
      (List.filter_map
         (fun (c, ns) -> if ns > 0 then Some (Category.slug c, ns) else None)
         (Engine.breakdown w.engine))
  in
  attempt "unknown procedure"
    (fun body -> Kernel.spawn w.kernel w.client body)
    "no-such-proc";
  attempt "unregistered caller"
    (fun body -> Engine.spawn w.engine ~domain:999 body)
    "null"

(* --- termination (§5.3) ------------------------------------------------------ *)

let test_terminate_server_fails_caller () =
  let engine = Engine.create ~processors:2 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"victim" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore
    (Api.export rt ~domain:server
       (I.interface "V" [ I.proc "hang" [] ])
       ~impls:
         [
           ( "hang",
             fun _ctx ->
               Engine.delay ~category:Category.Server_work engine (Time.ms 100);
               [] );
         ]);
  let b = Api.import rt ~domain:client ~interface:"V" in
  let failed = ref false in
  ignore
    (Kernel.spawn kernel client ~home:0 (fun () ->
         match Api.call rt b ~proc:"hang" [] with
         | _ -> Alcotest.fail "call should have failed"
         | exception Rt.Call_failed _ -> failed := true));
  ignore
    (Kernel.spawn kernel client ~home:1 ~name:"terminator" (fun () ->
         Engine.delay engine (Time.ms 1);
         Api.terminate_domain rt server));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "caller saw call-failed" true !failed;
  (* And the binding is now revoked for future calls. *)
  ignore
    (Kernel.spawn kernel client (fun () ->
         match Api.call rt b ~proc:"hang" [] with
         | exception Rt.Bad_binding _ -> ()
         | _ -> Alcotest.fail "revoked binding accepted"));
  Engine.run engine

let test_release_captured_thread () =
  let engine = Engine.create ~processors:2 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"captor" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let release = Waitq.create engine in
  ignore
    (Api.export rt ~domain:server
       (I.interface "C" [ I.proc "capture" [] ])
       ~impls:
         [
           ( "capture",
             fun _ctx ->
               (* hold the caller's thread indefinitely *)
               Waitq.wait release;
               [] );
         ]);
  let b = Api.import rt ~domain:client ~interface:"C" in
  let replacement_ran = ref false in
  let victim =
    Kernel.spawn kernel client ~home:0 ~name:"victim" (fun () ->
        ignore (Api.call rt b ~proc:"capture" []);
        Alcotest.fail "captured thread must not return normally")
  in
  ignore
    (Kernel.spawn kernel client ~home:1 ~name:"rescuer" (fun () ->
         Engine.delay engine (Time.ms 1);
         ignore
           (Api.release_captured rt ~captured:victim ~replacement:(fun () ->
                replacement_ran := true));
         (* later the captor releases; the victim must be destroyed *)
         Engine.delay engine (Time.ms 1);
         ignore (Waitq.signal release)));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "replacement ran" true !replacement_ran;
  Alcotest.(check bool) "victim destroyed" false (Engine.alive victim)

let test_alert_reaches_server () =
  let engine = Engine.create ~processors:2 cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"poller" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore
    (Api.export rt ~domain:server
       (I.interface "P" [ I.proc ~result:I.Int32 "poll_work" [] ])
       ~impls:
         [
           ( "poll_work",
             fun ctx ->
               let rounds = ref 0 in
               while (not (Server_ctx.alerted ctx)) && !rounds < 1000 do
                 Server_ctx.work ctx (Time.us 100);
                 incr rounds
               done;
               [ V.int !rounds ] );
         ]);
  let b = Api.import rt ~domain:client ~interface:"P" in
  let rounds = ref (-1) in
  let caller =
    Kernel.spawn kernel client ~home:0 (fun () ->
        match Api.call rt b ~proc:"poll_work" [] with
        | [ V.Int n ] -> rounds := n
        | _ -> ())
  in
  ignore
    (Kernel.spawn kernel client ~home:1 (fun () ->
         Engine.delay engine (Time.ms 2);
         Api.alert rt caller));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "cut short by alert" true (!rounds > 0 && !rounds < 1000)

(* --- property tests ---------------------------------------------------------- *)

let prop_roundtrip_bytes =
  QCheck.Test.make ~name:"big_in_out returns complement for any payload"
    ~count:30
    QCheck.(string_of_size (QCheck.Gen.return 200))
    (fun s ->
      let w = make_world () in
      let ok = ref false in
      in_client w (fun () ->
          let b = Api.import w.rt ~domain:w.client ~interface:"Arith" in
          match
            Api.call w.rt b ~proc:"big_in_out" [ V.bytes (Bytes.of_string s) ]
          with
          | [ V.Bytes out ] ->
              ok :=
                Bytes.length out = 200
                && Bytes.to_seq out |> Seq.mapi (fun i c -> (i, c))
                   |> Seq.for_all (fun (i, c) ->
                          Char.code c = Char.code s.[i] lxor 0xFF)
          | _ -> ());
      !ok)

let prop_add_commutes =
  QCheck.Test.make ~name:"add matches host addition" ~count:30
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let w = make_world () in
      let result = ref None in
      in_client w (fun () ->
          let bd = Api.import w.rt ~domain:w.client ~interface:"Arith" in
          match Api.call w.rt bd ~proc:"add" [ V.int a; V.int b ] with
          | [ V.Int s ] -> result := Some s
          | _ -> ());
      !result = Some (a + b))

(* Random fixed-size signatures: the server must observe exactly the
   values the client sent, whatever the type mix. *)
let scalar_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return I.Int32;
      QCheck.Gen.return I.Card32;
      QCheck.Gen.return I.Bool;
      QCheck.Gen.map (fun n -> I.Fixed_bytes n) (QCheck.Gen.int_range 1 64);
    ]

let type_gen =
  QCheck.Gen.oneof
    [
      scalar_gen;
      QCheck.Gen.map
        (fun tys ->
          I.Record (List.mapi (fun i ty -> (Printf.sprintf "f%d" i, ty)) tys))
        QCheck.Gen.(list_size (int_range 1 4) scalar_gen);
    ]

let rec value_for rng ty =
  match ty with
  | I.Int32 -> V.int (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range (-1000) 1000))
  | I.Card32 -> V.card (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range 0 1000))
  | I.Bool -> V.bool (QCheck.Gen.generate1 ~rand:rng QCheck.Gen.bool)
  | I.Fixed_bytes n ->
      V.bytes
        (Bytes.init n (fun _ ->
             Char.chr (QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_range 0 255))))
  | I.Record fields -> V.struct_ (List.map (fun (_, fty) -> value_for rng fty) fields)
  | I.Var_bytes _ -> assert false

let prop_random_signature_transfers_faithfully =
  QCheck.Test.make ~name:"random fixed signatures transfer faithfully" ~count:40
    QCheck.(make Gen.(pair (int_range 1 5) int))
    (fun (nparams, seed) ->
      let rng = Random.State.make [| seed |] in
      let types =
        List.init nparams (fun _ -> QCheck.Gen.generate1 ~rand:rng type_gen)
      in
      let params =
        List.mapi (fun i ty -> I.param (Printf.sprintf "p%d" i) ty) types
      in
      let iface = I.interface "Rand" [ I.proc "probe" params ] in
      let sent = List.map (value_for rng) types in
      let received = ref [] in
      let engine = Engine.create cm in
      let kernel = Kernel.boot engine in
      let rt = Api.init kernel in
      let server = Kernel.create_domain kernel ~name:"server" in
      let client = Kernel.create_domain kernel ~name:"client" in
      ignore
        (Api.export rt ~domain:server iface
           ~impls:
             [
               ( "probe",
                 fun ctx ->
                   received := Server_ctx.args ctx;
                   [] );
             ]);
      ignore
        (Kernel.spawn kernel client (fun () ->
             let b = Api.import rt ~domain:client ~interface:"Rand" in
             ignore (Api.call rt b ~proc:"probe" sent)));
      Engine.run engine;
      Engine.failures engine = []
      && List.length !received = List.length sent
      && List.for_all2 V.equal sent !received)

(* Concurrency stress: many clients in many domains hammering shared and
   private procedures on several processors must all complete, leave no
   thread stuck, and deliver exactly the expected number of calls. *)
let prop_concurrent_clients_stress =
  QCheck.Test.make ~name:"concurrent clients all complete" ~count:15
    QCheck.(pair (int_range 1 4) (int_range 1 6))
    (fun (processors, nclients) ->
      let engine = Engine.create ~processors cm in
      let kernel = Kernel.boot engine in
      let rt =
        Api.init ~config:{ Rt.default_config with Rt.astack_sharing = true }
          kernel
      in
      let server = Kernel.create_domain kernel ~name:"server" in
      ignore (Api.export rt ~domain:server arith_iface ~impls:arith_impls);
      let completed = ref 0 in
      for i = 0 to nclients - 1 do
        let client =
          Kernel.create_domain kernel ~name:(Printf.sprintf "c%d" i)
        in
        ignore
          (Kernel.spawn kernel client ~home:(i mod processors) (fun () ->
               let b = Api.import rt ~domain:client ~interface:"Arith" in
               for j = 1 to 10 do
                 (match Api.call rt b ~proc:"add" [ V.int i; V.int j ] with
                 | [ V.Int s ] when s = i + j -> incr completed
                 | _ -> ());
                 ignore (Api.call rt b ~proc:"null" []);
                 incr completed
               done))
      done;
      Engine.run engine;
      Engine.failures engine = []
      && Engine.stuck_threads engine = []
      && !completed = nclients * 20)

let prop_latency_linear_in_bytes =
  QCheck.Test.make ~name:"latency grows monotonically with payload" ~count:5
    QCheck.(int_range 1 900)
    (fun n ->
      let w = make_world () in
      let small =
        measure_call ~warmup:1 ~calls:5 w ~proc:"sum_var"
          ~args:[ V.bytes (Bytes.make n 'x') ]
      in
      let w2 = make_world () in
      let large =
        measure_call ~warmup:1 ~calls:5 w2 ~proc:"sum_var"
          ~args:[ V.bytes (Bytes.make (n + 100) 'x') ]
      in
      large > small)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_roundtrip_bytes;
        prop_add_commutes;
        prop_random_signature_transfers_faithfully;
        prop_concurrent_clients_stress;
        prop_latency_linear_in_bytes;
      ]
  in
  Alcotest.run "lrpc_core"
    [
      ( "basics",
        [
          Alcotest.test_case "add" `Quick test_add_returns_sum;
          Alcotest.test_case "byte integrity" `Quick test_data_integrity_bytes;
          Alcotest.test_case "variable size" `Quick test_variable_size_args;
          Alcotest.test_case "null outputs" `Quick test_null_has_no_outputs;
          Alcotest.test_case "arity" `Quick test_arity_mismatch_rejected;
          Alcotest.test_case "conformance" `Quick test_conformance_negative_card;
          Alcotest.test_case "unknown proc" `Quick test_unknown_proc_rejected;
          Alcotest.test_case "unknown interface" `Quick test_import_unknown_interface;
          Alcotest.test_case "import waits" `Quick test_import_waits_for_export;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "records" `Quick test_records_through_lrpc;
          Alcotest.test_case "by-ref record" `Quick test_by_ref_record_param;
          Alcotest.test_case "call1 arity" `Quick test_call1_rejects_multi_output;
          Alcotest.test_case "raw arg" `Quick test_raw_arg_matches_encoding;
          Alcotest.test_case "server sees caller values" `Quick
            test_server_sees_caller_values;
        ] );
      ( "security",
        [
          Alcotest.test_case "forged binding" `Quick test_forged_binding_detected;
          Alcotest.test_case "foreign binding" `Quick test_foreign_domain_binding_rejected;
          Alcotest.test_case "third party astack" `Quick test_third_party_cannot_read_astack;
          Alcotest.test_case "pairwise mapping" `Quick test_astack_pairwise_shared;
          Alcotest.test_case "mutation hazard" `Quick test_mutation_hazard_without_defensive_copies;
        ] );
      ( "copies",
        [
          Alcotest.test_case "trusting labels" `Quick test_copy_labels_trusting;
          Alcotest.test_case "defensive labels" `Quick test_copy_labels_defensive;
          Alcotest.test_case "uninterpreted skips E" `Quick test_uninterpreted_skips_defensive_copy;
          Alcotest.test_case "null copies nothing" `Quick test_null_copies_nothing;
        ] );
      ( "latency",
        [
          Alcotest.test_case "null 157us" `Quick test_null_latency_157us;
          Alcotest.test_case "add 164us" `Quick test_add_latency;
          Alcotest.test_case "bigin 192us" `Quick test_bigin_latency;
          Alcotest.test_case "biginout 227us" `Quick test_biginout_latency;
          Alcotest.test_case "null MP 125us" `Quick test_null_mp_latency_125us;
          Alcotest.test_case "43 tlb misses" `Quick test_tlb_misses_43_per_call;
          Alcotest.test_case "table 5 breakdown" `Quick test_breakdown_matches_table5;
        ] );
      ( "astacks",
        [
          Alcotest.test_case "exhaustion wait" `Quick test_astack_exhaustion_wait;
          Alcotest.test_case "exhaustion allocate" `Quick test_astack_exhaustion_allocate;
          Alcotest.test_case "foreign rejected" `Quick test_astack_validate_foreign;
          Alcotest.test_case "shard layout" `Quick test_astack_shard_layout;
          Alcotest.test_case "oversized oob" `Quick test_oversized_args_go_out_of_band;
          Alcotest.test_case "oob slower" `Quick test_oob_is_slower;
        ] );
      ( "astack sharing",
        [
          Alcotest.test_case "reduces storage" `Quick test_astack_sharing_reduces_storage;
          Alcotest.test_case "still correct" `Quick test_astack_sharing_still_correct;
          Alcotest.test_case "latency unchanged" `Quick test_astack_sharing_latency_unchanged;
          Alcotest.test_case "soft limit" `Quick test_astack_sharing_soft_limit;
        ] );
      ( "estacks",
        [
          Alcotest.test_case "lazy" `Quick test_estacks_lazy_by_default;
          Alcotest.test_case "static" `Quick test_estacks_static_preallocates;
          Alcotest.test_case "reclaim" `Quick test_estack_reclaim;
          Alcotest.test_case "memory pressure" `Quick test_estack_reclaim_under_memory_pressure;
          Alcotest.test_case "reclaim skips calls in flight" `Quick
            test_estack_reclaim_skips_calls_in_flight;
          Alcotest.test_case "associate refusals" `Quick
            test_estack_associate_refusals;
          Alcotest.test_case "footprint follows the E-stack" `Quick
            test_footprint_follows_estack;
          Alcotest.test_case "global lock serial" `Quick test_global_kernel_lock_serial_latency_unchanged;
        ] );
      ( "charge tails",
        [
          Alcotest.test_case "every call merges its reloads" `Quick
            test_every_call_merges_reloads;
          Alcotest.test_case "global lock unmerged trap" `Quick
            test_global_lock_unmerged_trap;
          Alcotest.test_case "failed lookup charges the call alone" `Quick
            test_failed_lookup_charges_call_alone;
        ] );
      ( "termination",
        [
          Alcotest.test_case "server dies" `Quick test_terminate_server_fails_caller;
          Alcotest.test_case "captured thread" `Quick test_release_captured_thread;
          Alcotest.test_case "alert" `Quick test_alert_reaches_server;
        ] );
      ("properties", qsuite);
    ]

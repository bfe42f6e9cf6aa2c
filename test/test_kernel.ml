open Lrpc_sim
open Lrpc_kernel

let cm = Cost_model.cvax_firefly

let boot ?(processors = 1) () =
  let e = Engine.create ~processors cm in
  (e, Kernel.boot e)

(* --- domains --------------------------------------------------------------- *)

let test_domain_ids_unique () =
  let _, k = boot () in
  let a = Kernel.create_domain k ~name:"a" in
  let b = Kernel.create_domain k ~name:"b" in
  Alcotest.(check bool) "distinct" true (a.Pdomain.id <> b.Pdomain.id);
  Alcotest.(check bool) "kernel is 0" true ((Kernel.kernel_domain k).Pdomain.id = 0);
  Alcotest.(check int) "find" a.Pdomain.id
    (Option.get (Kernel.find_domain k a.Pdomain.id)).Pdomain.id

let test_domain_machine () =
  let _, k = boot () in
  let local = Kernel.create_domain k ~name:"l" in
  let remote = Kernel.create_domain k ~machine:2 ~name:"r" in
  Alcotest.(check bool) "local pair" true (Pdomain.is_local local local);
  Alcotest.(check bool) "remote pair" false (Pdomain.is_local local remote)

(* The id-indexed tables at their edges, in the zero/max style: no
   domain answers -1, the next id not yet handed out or [max_int]; a
   thread the kernel never saw holds no linkages, and releasing one it
   does not hold raises, as does a second release after a claim. *)
let test_id_table_edges () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let id_of = Option.map (fun x -> x.Pdomain.id) in
  Alcotest.(check (option int)) "kernel domain" (Some 0) (id_of (Kernel.find_domain k 0));
  Alcotest.(check (option int)) "own id" (Some d.Pdomain.id)
    (id_of (Kernel.find_domain k d.Pdomain.id));
  List.iter
    (fun id ->
      Alcotest.(check (option int))
        (Printf.sprintf "no domain %d" id)
        None
        (id_of (Kernel.find_domain k id)))
    [ -1; d.Pdomain.id + 1; max_int ];
  let th = Kernel.spawn k d (fun () -> ()) in
  Alcotest.(check int) "never seen: none outstanding" 0
    (Kernel.outstanding_linkages k th);
  let none = Invalid_argument "Kernel.linkage_released: none outstanding" in
  Alcotest.check_raises "release with none outstanding" none (fun () ->
      Kernel.linkage_released k th);
  Kernel.linkage_claimed k th;
  Alcotest.(check int) "claimed" 1 (Kernel.outstanding_linkages k th);
  Kernel.linkage_released k th;
  Alcotest.check_raises "second release" none (fun () ->
      Kernel.linkage_released k th);
  Alcotest.(check int) "books balance" 0 (Kernel.total_linkages k)

(* --- memory --------------------------------------------------------------- *)

let test_page_budget_enforced () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~page_limit:10 ~name:"small" in
  let pages = Kernel.alloc_pages k d 10 in
  Alcotest.(check int) "got 10" 10 (Array.length pages);
  Alcotest.check_raises "budget" Out_of_memory (fun () ->
      ignore (Kernel.alloc_pages k d 1));
  Kernel.free_pages k d pages;
  Alcotest.(check int) "freed" 0 d.Pdomain.pages_allocated

let test_pages_never_reused () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let a = Kernel.alloc_pages k d 5 in
  Kernel.free_pages k d a;
  let b = Kernel.alloc_pages k d 5 in
  Array.iter
    (fun p -> Alcotest.(check bool) "fresh ids" false (Array.mem p a))
    b

let test_region_rounds_to_pages () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  (* 513 bytes on 512-byte pages = 2 pages *)
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:513 ~mapped:[ d ] in
  Alcotest.(check int) "2 pages" 2 (Array.length r.Vm.pages);
  Alcotest.(check int) "charged" 2 d.Pdomain.pages_allocated

let test_region_release () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  Kernel.release_region k ~owner:d r;
  Alcotest.(check bool) "invalid" false r.Vm.region_valid;
  Alcotest.(check int) "pages back" 0 d.Pdomain.pages_allocated;
  Alcotest.(check bool) "no access" false (Vm.accessible r d)

let test_dead_domain_cannot_allocate () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  Kernel.terminate_domain k d;
  Alcotest.check_raises "terminated" (Kernel.Domain_terminated "d") (fun () ->
      ignore (Kernel.alloc_pages k d 1))

(* [region_fits] at its edges (zero / ones / max), on 512- and 1,024-byte
   pages: it rounds as [alloc_region] does, so it says yes exactly when
   that allocation would succeed. *)
let test_region_fits_edges () =
  List.iter
    (fun cm ->
      let k = Kernel.boot (Engine.create cm) in
      let ps = cm.Cost_model.page_size in
      let d = Kernel.create_domain k ~page_limit:3 ~name:"d" in
      List.iter
        (fun (bytes, fits) ->
          Alcotest.(check bool)
            (Printf.sprintf "%d bytes in 3 pages of %d" bytes ps)
            fits
            (Kernel.region_fits k ~owner:d ~bytes))
        [
          (0, true); (1, true); (ps, true); ((3 * ps) - 1, true);
          (3 * ps, true); ((3 * ps) + 1, false); (max_int, false);
        ];
      let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:((2 * ps) + 1) ~mapped:[] in
      Alcotest.(check int) "rounded up" 3 (Array.length r.Vm.pages);
      Alcotest.(check bool) "full: not one byte" false
        (Kernel.region_fits k ~owner:d ~bytes:0);
      Alcotest.check_raises "as the allocation finds" Out_of_memory (fun () ->
          ignore (Kernel.alloc_region k ~owner:d ~name:"s" ~bytes:0 ~mapped:[]));
      Kernel.terminate_domain k d;
      Alcotest.check_raises "terminated" (Kernel.Domain_terminated "d") (fun () ->
          ignore (Kernel.region_fits k ~owner:d ~bytes:0)))
    [ Cost_model.cvax_firefly; Cost_model.m68020 ]

(* --- Vm data movement -------------------------------------------------------- *)

let test_vm_write_read () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  Vm.write_bytes ~by:d r ~off:8 (Bytes.of_string "payload");
  let back = Vm.read_bytes ~by:d r ~off:8 ~len:7 in
  Alcotest.(check string) "roundtrip" "payload" (Bytes.to_string back)

let test_vm_access_control () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let other = Kernel.create_domain k ~name:"other" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  (match Vm.write_bytes ~by:other r ~off:0 (Bytes.of_string "x") with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "unmapped write allowed");
  Vm.map_into r other;
  Vm.write_bytes ~by:other r ~off:0 (Bytes.of_string "x");
  Vm.unmap_from r other;
  match Vm.peek ~by:other r ~off:0 ~len:1 with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "unmapped peek allowed"

let test_vm_audit_counts () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  let audit = Vm.audit_create () in
  Vm.write_bytes ~audit ~label:"A" ~by:d r ~off:0 (Bytes.create 10);
  ignore (Vm.read_bytes ~audit ~label:"F" ~by:d r ~off:0 ~len:10);
  Alcotest.(check int) "two ops" 2 audit.Vm.copy_ops;
  Alcotest.(check int) "twenty bytes" 20 audit.Vm.bytes_copied;
  Alcotest.(check (list string)) "labels" [ "F"; "A" ] audit.Vm.labels;
  Vm.audit_reset audit;
  Alcotest.(check int) "reset" 0 audit.Vm.copy_ops

let test_vm_copy_charges_time () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  let elapsed = ref 0 in
  ignore
    (Kernel.spawn k d (fun () ->
         let t0 = Engine.now e in
         Vm.write_bytes ~engine:e ~by:d r ~off:0 (Bytes.create 100);
         elapsed := Time.sub (Engine.now e) t0));
  Engine.run e;
  (* per_value + 100 * per_byte = 1667 + 16700 ns *)
  Alcotest.(check int) "copy cost" 18_367 !elapsed

let test_vm_rate_override () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:512 ~mapped:[ d ] in
  let elapsed = ref 0 in
  ignore
    (Kernel.spawn k d (fun () ->
         let t0 = Engine.now e in
         Vm.write_bytes ~engine:e ~rate:(Time.us 1, Time.ns 10) ~by:d r ~off:0
           (Bytes.create 100);
         elapsed := Time.sub (Engine.now e) t0));
  Engine.run e;
  Alcotest.(check int) "override rate" 2_000 !elapsed

(* A region gets its bytes at its first touch. Its pages and their
   budget charge are taken at allocation; its bytes are not, and an
   access the mapping refuses makes none. The first read sees zeros.
   Memory is dirtied with 0xff first, so a fill that skipped the zeros
   would read garbage. *)
let dirty_heap () =
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size / 8 do
    ignore (Sys.opaque_identity (Bytes.make 48 '\xff'))
  done;
  List.iter
    (fun b -> ignore (Sys.opaque_identity b))
    (List.init 64 (fun _ -> Bytes.make 8192 '\xff'));
  Gc.full_major ()

let has_bytes r = Bytes.length r.Vm.data > 0

let test_bytes_at_first_touch () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let other = Kernel.create_domain k ~name:"other" in
  dirty_heap ();
  let r = Kernel.alloc_region k ~owner:d ~name:"estack" ~bytes:20_480 ~mapped:[ d ] in
  let small = Kernel.alloc_region k ~owner:d ~name:"astack" ~bytes:64 ~mapped:[ d ] in
  Alcotest.(check int) "40 pages" 40 (Array.length r.Vm.pages);
  Alcotest.(check int) "charged at allocation" 41 d.Pdomain.pages_allocated;
  Alcotest.(check int) "its size" 20_480 r.Vm.size;
  Alcotest.(check bool) "fresh: no bytes" false (has_bytes r);
  (match Vm.peek ~by:other r ~off:0 ~len:1 with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "unmapped peek allowed");
  Alcotest.(check bool) "a refused peek makes none" false (has_bytes r);
  List.iter
    (fun r ->
      Alcotest.(check string)
        (r.Vm.region_name ^ ": a mapped read sees zeros")
        (String.make r.Vm.size '\000')
        (Bytes.to_string (Vm.read_bytes ~by:d r ~off:0 ~len:r.Vm.size));
      Alcotest.(check int)
        (r.Vm.region_name ^ ": bytes made")
        r.Vm.size
        (Bytes.length r.Vm.data))
    [ r; small ];
  Kernel.release_region k ~owner:d r;
  Alcotest.(check int) "pages back" 1 d.Pdomain.pages_allocated;
  match Vm.peek ~by:d r ~off:0 ~len:1 with
  | exception Vm.Protection_violation _ -> ()
  | _ -> Alcotest.fail "released region readable"

(* First touch at the edges (zero / ones / max): a zero-length region,
   a write at the last byte, a write one past the end, and a copy out
   of a region never written. *)
let test_first_touch_edges () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let out_of_bounds what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: out of bounds allowed" what
  in
  let empty = Kernel.alloc_region k ~owner:d ~name:"empty" ~bytes:0 ~mapped:[ d ] in
  Alcotest.(check int) "zero bytes take a page" 1 (Array.length empty.Vm.pages);
  Vm.write_bytes ~by:d empty ~off:0 Bytes.empty;
  Alcotest.(check string) "zero-length read" ""
    (Bytes.to_string (Vm.read_bytes ~by:d empty ~off:0 ~len:0));
  out_of_bounds "one byte into zero" (fun () ->
      Vm.poke ~by:d empty ~off:0 (Bytes.of_string "x"));
  let r = Kernel.alloc_region k ~owner:d ~name:"r" ~bytes:64 ~mapped:[ d ] in
  Vm.poke ~by:d r ~off:63 (Bytes.of_string "z");
  Alcotest.(check string) "the last byte" "\000z"
    (Bytes.to_string (Vm.peek ~by:d r ~off:62 ~len:2));
  out_of_bounds "one past the end" (fun () ->
      Vm.poke ~by:d r ~off:64 (Bytes.of_string "x"));
  out_of_bounds "across the end" (fun () ->
      Vm.write_bytes ~by:d r ~off:63 (Bytes.of_string "xy"));
  out_of_bounds "read past the end" (fun () ->
      ignore (Vm.read_bytes ~by:d r ~off:1 ~len:64));
  let never = Kernel.alloc_region k ~owner:d ~name:"never" ~bytes:64 ~mapped:[] in
  Vm.poke ~by:d r ~off:0 (Bytes.of_string "written");
  Vm.region_to_region ~src:never ~src_off:0 ~dst:r ~dst_off:0 ~len:7 ();
  Alcotest.(check string) "copied zeros" (String.make 7 '\000')
    (Bytes.to_string (Vm.peek ~by:d r ~off:0 ~len:7))

let test_region_to_region () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let a = Kernel.alloc_region k ~owner:d ~name:"a" ~bytes:64 ~mapped:[ d ] in
  let b = Kernel.alloc_region k ~owner:d ~name:"b" ~bytes:64 ~mapped:[ d ] in
  Vm.poke ~by:d a ~off:0 (Bytes.of_string "transit");
  Vm.region_to_region ~src:a ~src_off:0 ~dst:b ~dst_off:8 ~len:7 ();
  Alcotest.(check string) "arrived" "transit"
    (Bytes.to_string (Vm.peek ~by:d b ~off:8 ~len:7))

(* --- traps, spawn, termination -------------------------------------------------- *)

let test_trap_charges () =
  let e, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  ignore (Kernel.spawn k d (fun () -> Kernel.trap k));
  Engine.run e;
  let traps =
    List.assoc_opt Category.Trap (Engine.breakdown e) |> Option.value ~default:0
  in
  Alcotest.(check int) "18us" cm.Cost_model.trap traps

let test_spawn_tracked () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let th = Kernel.spawn k d (fun () -> ()) in
  Alcotest.(check bool) "tracked" true (List.memq th d.Pdomain.threads)

let test_terminate_runs_hooks_once () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  let hits = ref [] in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate k (fun dom -> hits := ("first", dom.Pdomain.name) :: !hits)
  in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate k (fun dom ->
        hits := ("second", dom.Pdomain.name) :: !hits)
  in
  Kernel.terminate_domain k d;
  Kernel.terminate_domain k d;
  (* idempotent *)
  Alcotest.(check (list (pair string string)))
    "hooks in order, once"
    [ ("second", "d"); ("first", "d") ]
    !hits;
  Alcotest.(check bool) "dead" true (d.Pdomain.state = Pdomain.Dead)

let test_terminate_kills_threads () =
  (* Two processors: the looping victim never yields its CPU, so the
     killer needs one of its own. *)
  let e, k = boot ~processors:2 () in
  let d = Kernel.create_domain k ~name:"d" in
  let th =
    Kernel.spawn k d (fun () ->
        while true do
          Engine.delay e (Time.us 10)
        done)
  in
  ignore
    (Kernel.spawn k (Kernel.create_domain k ~name:"killer") (fun () ->
         Engine.delay e (Time.us 100);
         Kernel.terminate_domain k d));
  Engine.run e;
  Alcotest.(check bool) "looping thread killed" false (Engine.alive th);
  Alcotest.(check (list pass)) "kill is clean" [] (Engine.failures e)

(* --- idle-processor management -------------------------------------------------- *)

let test_find_idle_in_context () =
  let e, k = boot ~processors:2 () in
  let d = Kernel.create_domain k ~name:"d" in
  Alcotest.(check bool) "none initially" true
    (Kernel.find_idle_processor_in_context k d = None);
  (Engine.cpus e).(1).Engine.context <- Some d.Pdomain.id;
  (match Kernel.find_idle_processor_in_context k d with
  | Some c -> Alcotest.(check int) "cpu1" 1 c.Engine.idx
  | None -> Alcotest.fail "should find cpu1");
  (* a busy processor in the right context does not count *)
  ignore
    (Kernel.spawn k d ~home:1 (fun () -> Engine.delay e (Time.us 10)));
  Alcotest.(check bool) "busy excluded" true
    (Kernel.find_idle_processor_in_context k d = None)

let test_note_miss_prods_idle () =
  let e, k = boot ~processors:2 () in
  Kernel.set_domain_caching k true;
  let d = Kernel.create_domain k ~name:"hot" in
  Alcotest.(check int) "no misses yet" 0 (Kernel.context_misses k d);
  Kernel.note_context_miss k d;
  Alcotest.(check int) "one miss" 1 (Kernel.context_misses k d);
  (* an idle processor was prodded into the hot domain's context *)
  let claimed =
    Array.exists
      (fun c -> c.Engine.context = Some d.Pdomain.id)
      (Engine.cpus e)
  in
  Alcotest.(check bool) "idle cpu claimed" true claimed

let test_note_miss_respects_hotter_domain () =
  let e, k = boot ~processors:1 () in
  Kernel.set_domain_caching k true;
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  for _ = 1 to 5 do
    Kernel.note_context_miss k hot
  done;
  (* the single idle cpu belongs to hot now *)
  Alcotest.(check (option int)) "hot owns it" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Kernel.note_context_miss k cold;
  (* one miss does not evict a five-miss domain *)
  Alcotest.(check (option int)) "hot keeps it" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  for _ = 1 to 10 do
    Kernel.note_context_miss k cold
  done;
  Alcotest.(check (option int)) "cold out-misses hot" (Some cold.Pdomain.id)
    (Engine.cpus e).(0).Engine.context

let test_miss_counting () =
  let _, k = boot () in
  let d = Kernel.create_domain k ~name:"d" in
  Alcotest.(check int) "no misses" 0 (Kernel.context_misses k d);
  for _ = 1 to 3 do
    Kernel.note_context_miss k d
  done;
  Alcotest.(check int) "raw count" 3 (Kernel.context_misses k d)

let test_miss_prod_needs_margin () =
  let e, k = boot ~processors:1 () in
  Kernel.set_domain_caching k true;
  let hot = Kernel.create_domain k ~name:"hot" in
  let cold = Kernel.create_domain k ~name:"cold" in
  Kernel.note_context_miss k hot;
  Kernel.note_context_miss k hot;
  Alcotest.(check (option int)) "hot claims the idle cpu"
    (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  (* pulling even (2 misses vs 2) is not enough: the eviction needs
     strictly more misses than the held context's domain *)
  Kernel.note_context_miss k cold;
  Kernel.note_context_miss k cold;
  Alcotest.(check (option int)) "tie does not evict" (Some hot.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Kernel.note_context_miss k cold;
  Alcotest.(check (option int)) "a clear gap does" (Some cold.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Alcotest.(check bool) "prods counted" true (Kernel.prods k >= 2)

(* An untagged idle processor is the first victim, even past a lower
   index holding a domain that never missed (which ranks at 0 misses,
   below the missing domain's 1). *)
let test_untagged_beats_cold_tag () =
  let e, k = boot ~processors:2 () in
  Kernel.set_domain_caching k true;
  let quiet = Kernel.create_domain k ~name:"quiet" in
  let hot = Kernel.create_domain k ~name:"hot" in
  (Engine.cpus e).(0).Engine.context <- Some quiet.Pdomain.id;
  Kernel.note_context_miss k hot;
  Alcotest.(check (option int)) "untagged cpu1 prodded" (Some hot.Pdomain.id)
    (Engine.cpus e).(1).Engine.context;
  Alcotest.(check (option int)) "cpu0 keeps its context"
    (Some quiet.Pdomain.id)
    (Engine.cpus e).(0).Engine.context;
  Alcotest.(check int) "one prod" 1 (Kernel.prods k)

(* Among several untagged idle processors the lowest index is prodded,
   and each later miss takes the next untagged one. *)
let test_lowest_untagged_wins () =
  let e, k = boot ~processors:4 () in
  Kernel.set_domain_caching k true;
  let other = Kernel.create_domain k ~name:"other" in
  let a = Kernel.create_domain k ~name:"a" in
  let b = Kernel.create_domain k ~name:"b" in
  (Engine.cpus e).(0).Engine.context <- Some other.Pdomain.id;
  Kernel.note_context_miss k a;
  Kernel.note_context_miss k b;
  let ctx = Array.map (fun c -> c.Engine.context) (Engine.cpus e) in
  Alcotest.(check (array (option int))) "cpu1 then cpu2"
    [| Some other.Pdomain.id; Some a.Pdomain.id; Some b.Pdomain.id; None |]
    ctx

(* A processor already holding the missing domain's context is never a
   candidate: further misses leave it (and the prod count) alone. *)
let test_own_context_not_reprodded () =
  let e, k = boot ~processors:1 () in
  Kernel.set_domain_caching k true;
  let d = Kernel.create_domain k ~name:"d" in
  Kernel.note_context_miss k d;
  Alcotest.(check int) "first miss prods" 1 (Kernel.prods k);
  for _ = 1 to 5 do
    Kernel.note_context_miss k d
  done;
  Alcotest.(check int) "no second prod" 1 (Kernel.prods k);
  Alcotest.(check (option int)) "still d" (Some d.Pdomain.id)
    (Engine.cpus e).(0).Engine.context

(* The traffic the counter rule is trusted on: Table 4's LRPC/MP world
   (two processors, domain caching, a Null loop) makes exactly one prod,
   onto the untagged second processor, and every later call hits. *)
let test_t4_mp_world_prods_once () =
  let module Driver = Lrpc_workload.Driver in
  let w =
    Driver.make_lrpc
      ~config:
        {
          Driver.Config.default with
          Driver.Config.processors = 2;
          domain_caching = true;
        }
      ()
  in
  ignore (Driver.lrpc_latency w ~proc:"null" ~args:[]);
  Alcotest.(check int) "one prod" 1 (Kernel.prods w.Driver.lw_kernel)

let test_exchange_hit_accounting () =
  let e, k = boot ~processors:2 () in
  Kernel.set_domain_caching k true;
  let d = Kernel.create_domain k ~name:"d" in
  Kernel.note_context_miss k d;
  Alcotest.(check int) "one prod" 1 (Kernel.prods k);
  let prodded =
    Array.to_list (Engine.cpus e)
    |> List.find_opt (fun c -> c.Engine.context = Some d.Pdomain.id)
  in
  let cpu = Option.get prodded in
  Alcotest.(check int) "no hits yet" 0 (Kernel.context_hits k d);
  Kernel.note_context_hit ~cpu k d;
  Alcotest.(check int) "hit counted" 1 (Kernel.context_hits k d);
  let snap = Lrpc_obs.Metrics.snapshot (Engine.metrics e) in
  (match Lrpc_obs.Metrics.get_histogram snap "kernel.prod_to_hit_us" with
  | Some h -> Alcotest.(check int) "prod-to-hit sample" 1 h.Lrpc_obs.Metrics.hs_count
  | None -> Alcotest.fail "prod_to_hit_us histogram missing");
  (* the prod is consumed: a second hit on the same processor is an
     ordinary exchange, not another prod-to-hit sample *)
  Kernel.note_context_hit ~cpu k d;
  Alcotest.(check int) "second hit counted" 2 (Kernel.context_hits k d);
  let snap = Lrpc_obs.Metrics.snapshot (Engine.metrics e) in
  match Lrpc_obs.Metrics.get_histogram snap "kernel.prod_to_hit_us" with
  | Some h -> Alcotest.(check int) "still one sample" 1 h.Lrpc_obs.Metrics.hs_count
  | None -> Alcotest.fail "prod_to_hit_us histogram missing"

let () =
  Alcotest.run "lrpc_kernel"
    [
      ( "domains",
        [
          Alcotest.test_case "ids" `Quick test_domain_ids_unique;
          Alcotest.test_case "machines" `Quick test_domain_machine;
          Alcotest.test_case "id table edges" `Quick test_id_table_edges;
        ] );
      ( "memory",
        [
          Alcotest.test_case "budget" `Quick test_page_budget_enforced;
          Alcotest.test_case "fresh pages" `Quick test_pages_never_reused;
          Alcotest.test_case "page rounding" `Quick test_region_rounds_to_pages;
          Alcotest.test_case "release" `Quick test_region_release;
          Alcotest.test_case "dead domain" `Quick test_dead_domain_cannot_allocate;
          Alcotest.test_case "region fits edges" `Quick test_region_fits_edges;
        ] );
      ( "vm",
        [
          Alcotest.test_case "write/read" `Quick test_vm_write_read;
          Alcotest.test_case "access control" `Quick test_vm_access_control;
          Alcotest.test_case "audit" `Quick test_vm_audit_counts;
          Alcotest.test_case "copy cost" `Quick test_vm_copy_charges_time;
          Alcotest.test_case "rate override" `Quick test_vm_rate_override;
          Alcotest.test_case "region to region" `Quick test_region_to_region;
          Alcotest.test_case "bytes at first touch" `Quick test_bytes_at_first_touch;
          Alcotest.test_case "first touch edges" `Quick test_first_touch_edges;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "trap" `Quick test_trap_charges;
          Alcotest.test_case "spawn tracked" `Quick test_spawn_tracked;
          Alcotest.test_case "terminate hooks" `Quick test_terminate_runs_hooks_once;
          Alcotest.test_case "terminate kills" `Quick test_terminate_kills_threads;
        ] );
      ( "idle processors",
        [
          Alcotest.test_case "find idle" `Quick test_find_idle_in_context;
          Alcotest.test_case "prodding" `Quick test_note_miss_prods_idle;
          Alcotest.test_case "hotter wins" `Quick test_note_miss_respects_hotter_domain;
          Alcotest.test_case "miss counting" `Quick test_miss_counting;
          Alcotest.test_case "prod margin" `Quick test_miss_prod_needs_margin;
          Alcotest.test_case "untagged first" `Quick test_untagged_beats_cold_tag;
          Alcotest.test_case "lowest untagged" `Quick test_lowest_untagged_wins;
          Alcotest.test_case "own context kept" `Quick test_own_context_not_reprodded;
          Alcotest.test_case "t4 mp one prod" `Quick test_t4_mp_world_prods_once;
          Alcotest.test_case "exchange hits" `Quick test_exchange_hit_accounting;
        ] );
    ]

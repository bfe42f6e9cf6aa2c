(* --- CPU locality topology ----------------------------------------------

   The paper's Firefly is a flat shared-bus machine: every cross-CPU
   interaction costs the same. The 64-256 CPU rungs of the scaling study
   model machines that are *not* flat — CPUs come in clusters (a socket,
   a NUMA node) and touching state homed on another cluster costs more.
   A topology assigns every CPU pair a distance class and scales the
   three cross-CPU mechanisms by per-class multipliers:

   - dispatch: the [vm_reload] charged when a thread migrates to a CPU
     it did not last run on (ordinary wake re-routing);
   - steal: the same reload when the migration was caused by work
     stealing (pulling the queue entry across the interconnect is at
     least as expensive as a planned migration);
   - prod: not a charged cost but a benefit discount — the kernel's
     idle-prod policy divides a domain's miss EWMA by this factor when
     ranking idle CPUs far from the missing CPU.

   [None] (every published model) means flat: no multiplier is ever
   applied and all code paths are byte-identical to the pre-topology
   engine. *)

type distance = Local | Same_cluster | Cross_cluster

type topology = {
  topo_name : string;
  cluster_size : int;  (* CPUs per cluster, >= 1 *)
  dispatch_same : float;  (* cross-CPU migration, same cluster *)
  dispatch_cross : float;  (* cross-cluster migration *)
  steal_same : float;
  steal_cross : float;
  prod_same : float;
  prod_cross : float;
  near_steal : bool;  (* distance-ordered victim rings; false = blind *)
}

type t = {
  name : string;
  proc_call : Time.t;
  trap : Time.t;
  vm_reload : Time.t;
  tlb_miss : Time.t;
  tlb_capacity : int;
  tlb_tagged : bool;
  page_size : int;
  per_value : Time.t;
  per_byte : Time.t;
  client_stub_call : Time.t;
  client_stub_return : Time.t;
  server_stub_call : Time.t;
  server_stub_return : Time.t;
  kernel_call : Time.t;
  kernel_return : Time.t;
  processor_exchange : Time.t;
  astack_lock : Time.t;
  coherency_per_byte : Time.t;
  bus_alpha : float;
  spin_quantum : Time.t;
  topology : topology option;
}

let cluster_of topo cpu = cpu / topo.cluster_size

let distance topo a b =
  if a = b then Local
  else if cluster_of topo a = cluster_of topo b then Same_cluster
  else Cross_cluster

let dispatch_mult topo a b =
  match distance topo a b with
  | Local -> 1.0
  | Same_cluster -> topo.dispatch_same
  | Cross_cluster -> topo.dispatch_cross

let steal_mult topo a b =
  match distance topo a b with
  | Local -> 1.0
  | Same_cluster -> topo.steal_same
  | Cross_cluster -> topo.steal_cross

let prod_mult topo a b =
  match distance topo a b with
  | Local -> 1.0
  | Same_cluster -> topo.prod_same
  | Cross_cluster -> topo.prod_cross

(* Deterministic near-first victim order for [cpu] on a [cpus]-CPU
   machine: the rest of its own cluster starting just after it (wrapping
   within the cluster), then every other CPU starting at the next
   cluster (wrapping around the machine). The rotation keeps thieves in
   one cluster from all hammering the same victim first. Every CPU
   except [cpu] itself appears exactly once (qcheck-pinned). *)
let victim_ring topo ~cpus ~cpu =
  if cpu < 0 || cpu >= cpus then invalid_arg "Cost_model.victim_ring";
  let lo = cluster_of topo cpu * topo.cluster_size in
  let hi = min cpus (lo + topo.cluster_size) in
  let width = hi - lo in
  let ring = Array.make (cpus - 1) 0 in
  let n = ref 0 in
  let push c = ring.(!n) <- c; incr n in
  for k = 1 to width - 1 do
    push (lo + ((cpu - lo + k) mod width))
  done;
  (* hi, hi+1, ..., cpus-1, 0, ..., lo-1: exactly the non-cluster CPUs *)
  for k = 0 to cpus - width - 1 do
    push ((hi + k) mod cpus)
  done;
  assert (!n = cpus - 1);
  ring

let clustered ?(same_mult = 1.0) ?(cross_mult = 4.0) ?steal_same ?steal_cross
    ?prod_same ?prod_cross ?(near_steal = true) ~cluster_size ~name base =
  if cluster_size < 1 then
    invalid_arg "Cost_model.clustered: cluster_size must be >= 1";
  let dfl opt d = match opt with Some v -> v | None -> d in
  let topo =
    {
      topo_name = name;
      cluster_size;
      dispatch_same = same_mult;
      dispatch_cross = cross_mult;
      steal_same = dfl steal_same same_mult;
      steal_cross = dfl steal_cross cross_mult;
      prod_same = dfl prod_same same_mult;
      prod_cross = dfl prod_cross cross_mult;
      near_steal;
    }
  in
  let check what v =
    if v < 1.0 then
      invalid_arg
        (Printf.sprintf "Cost_model.clustered: %s multiplier %g < 1.0" what v)
  in
  check "dispatch_same" topo.dispatch_same;
  check "dispatch_cross" topo.dispatch_cross;
  check "steal_same" topo.steal_same;
  check "steal_cross" topo.steal_cross;
  check "prod_same" topo.prod_same;
  check "prod_cross" topo.prod_cross;
  { base with name = base.name ^ " / " ^ name; topology = Some topo }

(* Miss-count derivation: the VAX page is 512 bytes and the C-VAX TLB is
   flushed on every context switch. After the call-side switch the path
   touches kernel code (8 pages) and data (4), the server stub (2) and
   procedure (2), the E-stack (4), the A-stack (1), the PDL (1), the
   linkage area (1) and binding table (2): 25 pages. After the return-side
   switch it touches kernel code/data again (10), the client stub (2),
   code (2) and stack (4): 18 pages. 43 total, matching the paper's
   hand-calculated estimate. *)
let call_side_tlb_misses = 25
let return_side_tlb_misses = 18
let null_tlb_misses = call_side_tlb_misses + return_side_tlb_misses

let cvax_firefly =
  {
    name = "C-VAX Firefly";
    proc_call = Time.us 7;
    trap = Time.us 18;
    vm_reload = Time.us_f 13.65;
    tlb_miss = Time.us_f 0.9;
    tlb_capacity = 64;
    tlb_tagged = false;
    page_size = 512;
    per_value = Time.ns 1_667;
    per_byte = Time.ns 167;
    client_stub_call = Time.us 10;
    client_stub_return = Time.us 5;
    server_stub_call = Time.us 2;
    server_stub_return = Time.us 1;
    kernel_call = Time.us 20;
    kernel_return = Time.us 7;
    processor_exchange = Time.us 17;
    astack_lock = Time.us_f 1.5;
    coherency_per_byte = Time.ns 62;
    bus_alpha = 0.027;
    spin_quantum = Time.ns 500;
    topology = None;
  }

let scaled t ~factor ~name =
  let f x = Time.scale x factor in
  {
    t with
    name;
    proc_call = f t.proc_call;
    trap = f t.trap;
    vm_reload = f t.vm_reload;
    tlb_miss = f t.tlb_miss;
    per_value = f t.per_value;
    per_byte = f t.per_byte;
    client_stub_call = f t.client_stub_call;
    client_stub_return = f t.client_stub_return;
    server_stub_call = f t.server_stub_call;
    server_stub_return = f t.server_stub_return;
    kernel_call = f t.kernel_call;
    kernel_return = f t.kernel_return;
    processor_exchange = f t.processor_exchange;
    astack_lock = f t.astack_lock;
    coherency_per_byte = f t.coherency_per_byte;
  }

let microvax2_firefly =
  let m = scaled cvax_firefly ~factor:2.2 ~name:"MicroVAX II Firefly" in
  (* Slower processors put proportionally less pressure on the shared
     memory bus per unit time, but the paper's 4.3x speedup at five
     processors implies slightly higher per-processor interference than
     the C-VAX's 3.7x at four; fitted accordingly. *)
  { m with bus_alpha = 0.035 }

let m68020 =
  {
    name = "68020";
    proc_call = Time.us 10;
    trap = Time.us_f 28.5;
    vm_reload = Time.us 30;
    tlb_miss = Time.us_f 1.0;
    tlb_capacity = 64;
    tlb_tagged = false;
    page_size = 1024;
    per_value = Time.ns 2_000;
    per_byte = Time.ns 200;
    client_stub_call = Time.us 13;
    client_stub_return = Time.us 7;
    server_stub_call = Time.us 3;
    server_stub_return = Time.us 1;
    kernel_call = Time.us 24;
    kernel_return = Time.us 9;
    processor_exchange = Time.us 20;
    astack_lock = Time.us_f 1.8;
    coherency_per_byte = Time.ns 80;
    bus_alpha = 0.03;
    spin_quantum = Time.ns 500;
    topology = None;
  }

let perq_accent =
  {
    name = "PERQ";
    proc_call = Time.us 25;
    trap = Time.us 80;
    vm_reload = Time.us 65;
    tlb_miss = Time.us_f 3.0;
    tlb_capacity = 32;
    tlb_tagged = false;
    page_size = 512;
    per_value = Time.us 5;
    per_byte = Time.ns 600;
    client_stub_call = Time.us 30;
    client_stub_return = Time.us 15;
    server_stub_call = Time.us 5;
    server_stub_return = Time.us 3;
    kernel_call = Time.us 50;
    kernel_return = Time.us 18;
    processor_exchange = Time.us 40;
    astack_lock = Time.us 4;
    coherency_per_byte = Time.ns 150;
    bus_alpha = 0.03;
    spin_quantum = Time.ns 500;
    topology = None;
  }

let null_minimum t =
  let open Time in
  t.proc_call + t.trap + t.trap + t.vm_reload + t.vm_reload
  + scale t.tlb_miss (float_of_int null_tlb_misses)

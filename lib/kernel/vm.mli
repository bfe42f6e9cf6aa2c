(** Virtual-memory regions and protected byte movement.

    A region is a run of simulated pages, for TLB footprints and page
    budgets, and the real bytes behind them. The pages are taken when
    the region is allocated; the bytes are made, zero-filled, the first
    time anything reads or writes them ({!bytes}). So a region the
    simulation models by its pages alone — an E-stack, a linkage record,
    stubs, code or a stack, an A-stack no call has written, a message
    buffer no call has used — holds no bytes. Mapping
    is what the paper's pairwise-shared A-stacks rely on: the same backing
    bytes are made visible to exactly the client and server of one binding
    (and to nobody else), so argument data written by the client stub is
    physically the data the server procedure reads — copies only happen
    where the protocol says they happen, and tests can observe both the
    sharing and the §3.5 mutation hazard.

    [copy] is the single choke-point for data movement: it performs the
    real blit, charges the simulated per-value/per-byte cost, enforces
    access rights, and reports to an optional audit counter (Table 3). *)

type region = {
  rid : int;
  region_name : string;
  pages : int array;  (** global page identifiers, for TLB footprints *)
  size : int;  (** bytes, as allocated *)
  mutable data : Bytes.t;
      (** the region's contents once touched, empty before: read them
          through {!bytes} *)
  mutable mapped : Pdomain.id list;
      (** domains with read-write access; kernel-only regions map [] *)
  mutable region_valid : bool;  (** unmapped/reclaimed regions are invalid *)
}

type audit = {
  mutable copy_ops : int;  (** number of distinct copy operations *)
  mutable bytes_copied : int;
  mutable labels : string list;  (** copy-op labels, most recent first *)
}

val audit_create : unit -> audit
val audit_reset : audit -> unit

exception Protection_violation of string

val map_into : region -> Pdomain.t -> unit
val unmap_from : region -> Pdomain.t -> unit

val accessible : region -> Pdomain.t -> bool
(** Kernel-only regions (mapped into no domain) are accessible to the
    kernel alone; [accessible] answers for user domains. *)

val check : by:Pdomain.t -> region -> string -> unit
(** [check ~by r op] raises {!Protection_violation}, naming [op], unless
    [by] may access [r]: the access check of every operation below. *)

val bytes : region -> Bytes.t
(** The region's [size] bytes, made zero-filled at the first call. No
    access check: the operations below make it first, and a caller that
    encodes or decodes in place makes its own with {!check}. *)

val record_copy :
  engine:Lrpc_sim.Engine.t -> ?audit:audit -> label:string -> int -> unit
(** The bookkeeping half of one copy operation of the given length at
    the cost model's LRPC stub rates, as {!write_bytes} and
    {!read_bytes} do it after moving their bytes: bump the audit and
    charge the copy. For a caller that moved the bytes itself, straight
    to or from their final place, after a {!check}. *)

val write_bytes :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  by:Pdomain.t ->
  region ->
  off:int ->
  bytes ->
  unit
(** One copy operation moving the given bytes into the region at [off].
    Charges [per_value + per_byte * length] when [engine] is given — from
    the cost model's LRPC stub rates, or from [rate = (per_value,
    per_byte)] when a baseline RPC system supplies its own — checks that
    [by] has the region mapped, and bumps the audit. *)

val read_bytes :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  by:Pdomain.t ->
  region ->
  off:int ->
  len:int ->
  bytes
(** One copy operation moving bytes out of the region (e.g. the client
    stub copying results to their final destination — copy F). *)

val peek : by:Pdomain.t -> region -> off:int -> len:int -> bytes
(** Zero-cost direct access to shared memory, as the server procedure
    reading arguments in place off the A-stack. Access is still checked;
    no copy is recorded and no time is charged. *)

val poke : by:Pdomain.t -> region -> off:int -> bytes -> unit
(** Zero-cost direct in-place write (the server placing return values on
    the A-stack, or a misbehaving peer mutating arguments mid-call). *)

val region_to_region :
  ?engine:Lrpc_sim.Engine.t ->
  ?rate:Lrpc_sim.Time.t * Lrpc_sim.Time.t ->
  ?audit:audit ->
  ?label:string ->
  src:region ->
  src_off:int ->
  dst:region ->
  dst_off:int ->
  len:int ->
  unit ->
  unit
(** Kernel-mediated copy between regions (message passing's B and C / D
    copies). No access check: the kernel can reach everything. *)

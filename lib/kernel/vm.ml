type region = {
  rid : int;
  region_name : string;
  pages : int array;
  size : int;
  mutable data : Bytes.t;
  mutable mapped : Pdomain.id list;
  mutable region_valid : bool;
}

type audit = {
  mutable copy_ops : int;
  mutable bytes_copied : int;
  mutable labels : string list;
}

let audit_create () = { copy_ops = 0; bytes_copied = 0; labels = [] }

let audit_reset a =
  a.copy_ops <- 0;
  a.bytes_copied <- 0;
  a.labels <- []

exception Protection_violation of string

let map_into r d =
  if not (List.mem d.Pdomain.id r.mapped) then r.mapped <- d.Pdomain.id :: r.mapped

let unmap_from r d =
  r.mapped <- List.filter (fun id -> id <> d.Pdomain.id) r.mapped

(* [List.mem] would compare ids with the polymorphic [compare]. *)
let rec has_id (id : Pdomain.id) = function
  | x :: rest -> x = id || has_id id rest
  | [] -> false

let accessible r d = r.region_valid && has_id d.Pdomain.id r.mapped

let check ~by:d r what =
  if not (accessible r d) then
    raise
      (Protection_violation
         (Printf.sprintf "%s: domain %s has no access to region %s" what
            d.Pdomain.name r.region_name))

(* Made at the first touch, so a region nothing reads or writes holds
   only its pages. *)
let bytes r =
  if Bytes.length r.data < r.size then r.data <- Bytes.make r.size '\000';
  r.data

let note audit label bytes =
  match audit with
  | Some a ->
      a.copy_ops <- a.copy_ops + 1;
      a.bytes_copied <- a.bytes_copied + bytes;
      a.labels <- label :: a.labels
  | None -> ()

let charge e rate label len =
  if Lrpc_sim.Engine.tracing e then
    Lrpc_sim.Engine.emit e (Lrpc_obs.Event.Copy { label; bytes = len });
  let cost =
    match rate with
    | Some (per_value, per_byte) -> per_value + (len * per_byte)
    | None ->
        let cm = Lrpc_sim.Engine.cost_model e in
        cm.Lrpc_sim.Cost_model.per_value + (len * cm.Lrpc_sim.Cost_model.per_byte)
  in
  Lrpc_sim.Engine.delay ~category:Lrpc_sim.Category.Copy e cost

(* A copy operation's bookkeeping: audit it, and charge it when an
   engine is given. *)
let account engine rate audit label len =
  let label = Option.value label ~default:"copy" in
  note audit label len;
  match engine with None -> () | Some e -> charge e rate label len

let record_copy ~engine ?audit ~label len =
  note audit label len;
  charge engine None label len

let write_bytes ?engine ?rate ?audit ?label ~by r ~off src =
  check ~by r "write_bytes";
  Bytes.blit src 0 (bytes r) off (Bytes.length src);
  account engine rate audit label (Bytes.length src)

let read_bytes ?engine ?rate ?audit ?label ~by r ~off ~len =
  check ~by r "read_bytes";
  let out = Bytes.create len in
  Bytes.blit (bytes r) off out 0 len;
  account engine rate audit label len;
  out

let peek ~by r ~off ~len =
  check ~by r "peek";
  Bytes.sub (bytes r) off len

let poke ~by r ~off src =
  check ~by r "poke";
  Bytes.blit src 0 (bytes r) off (Bytes.length src)

let region_to_region ?engine ?rate ?audit ?label ~src ~src_off ~dst ~dst_off ~len
    () =
  if not (src.region_valid && dst.region_valid) then
    raise (Protection_violation "region_to_region: invalid region");
  Bytes.blit (bytes src) src_off (bytes dst) dst_off len;
  account engine rate audit label len

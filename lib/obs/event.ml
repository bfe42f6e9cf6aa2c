type t =
  | Dispatch of { thread : string; domain : int; switched : bool }
  | Block of { thread : string }
  | Wake of { thread : string }
  | Finish of { thread : string; error : string option }
  | Switch of { from_domain : int; to_domain : int }
  | Exchange of { from_cpu : int; to_cpu : int }
  | Trap
  | Copy of { label : string; bytes : int }
  | Lock_acquire of { lock : string }
  | Lock_contend of { lock : string }
  | Bound of { interface : string; binding : int }
  | Call_issued of { binding : int; proc : string; handle : int }
  | Call_completed of { binding : int; proc : string; handle : int; ok : bool }
  | Call_failed of { binding : int; proc : string; handle : int; reason : string }
  | Call_rejected of { binding : int; proc : string; reason : string }
  | Terminated of { domain : string }
  | Net_send of { bytes : int }
  | Net_recv of { bytes : int }
  | Net_packet of { seq : int; pkt : int; bytes : int; retransmit : bool }
  | Slice of { category : Category.t; dur : Time.t }
  | Mark of { name : string; detail : string }

let name = function
  | Dispatch _ -> "dispatch"
  | Block _ -> "block"
  | Wake _ -> "wake"
  | Finish _ -> "finish"
  | Switch _ -> "switch"
  | Exchange _ -> "exchange"
  | Trap -> "trap"
  | Copy _ -> "copy"
  | Lock_acquire _ -> "acquire"
  | Lock_contend _ -> "contend"
  | Bound _ -> "bind"
  | Call_issued _ -> "call-issued"
  | Call_completed _ -> "call-completed"
  | Call_failed _ -> "call-failed"
  | Call_rejected _ -> "call-rejected"
  | Terminated _ -> "terminate"
  | Net_send _ -> "net-send"
  | Net_recv _ -> "net-recv"
  | Net_packet _ -> "net-packet"
  | Slice _ -> "slice"
  | Mark m -> m.name

(* Detail strings for the scheduling events match the pre-typed trace
   verbatim, so dumps stay diffable across the refactor. *)
let detail = function
  | Dispatch d ->
      Printf.sprintf "%s domain=%d%s" d.thread d.domain
        (if d.switched then " +switch" else "")
  | Block b -> b.thread
  | Wake w -> w.thread
  | Finish { thread; error = None } -> thread
  | Finish { thread; error = Some e } -> thread ^ ": " ^ e
  | Switch s -> Printf.sprintf "domain %d -> %d" s.from_domain s.to_domain
  | Exchange e -> Printf.sprintf "cpu %d -> %d" e.from_cpu e.to_cpu
  | Trap -> ""
  | Copy c -> Printf.sprintf "%s %d bytes" c.label c.bytes
  | Lock_acquire l -> l.lock
  | Lock_contend l -> l.lock
  | Bound b -> Printf.sprintf "%s #%d" b.interface b.binding
  | Call_issued c -> Printf.sprintf "%s handle=%d binding=%d" c.proc c.handle c.binding
  | Call_completed c ->
      Printf.sprintf "%s handle=%d binding=%d%s" c.proc c.handle c.binding
        (if c.ok then "" else " failed")
  | Call_failed c ->
      Printf.sprintf "%s handle=%d binding=%d: %s" c.proc c.handle c.binding
        c.reason
  | Call_rejected c -> Printf.sprintf "%s binding=%d: %s" c.proc c.binding c.reason
  | Terminated t -> t.domain
  | Net_send s -> Printf.sprintf "%d bytes" s.bytes
  | Net_recv r -> Printf.sprintf "%d bytes" r.bytes
  | Net_packet p ->
      Printf.sprintf "seq %d pkt %d %d bytes%s" p.seq p.pkt p.bytes
        (if p.retransmit then " (retransmit)" else "")
  | Slice s ->
      Printf.sprintf "%s %.3fus" (Category.to_string s.category)
        (Time.to_us s.dur)
  | Mark m -> m.detail

(* Structured key/value payload, for the Chrome-trace [args] object. *)
let args =
  let open Lrpc_util.Json in
  function
  | Dispatch d ->
      [
        ("thread", String d.thread); ("domain", Int d.domain);
        ("switched", String (string_of_bool d.switched));
      ]
  | Block b -> [ ("thread", String b.thread) ]
  | Wake w -> [ ("thread", String w.thread) ]
  | Finish { thread; error } -> (
      [ ("thread", String thread) ]
      @ match error with Some e -> [ ("error", String e) ] | None -> [])
  | Switch s -> [ ("from", Int s.from_domain); ("to", Int s.to_domain) ]
  | Exchange e -> [ ("from", Int e.from_cpu); ("to", Int e.to_cpu) ]
  | Trap -> []
  | Copy c -> [ ("label", String c.label); ("bytes", Int c.bytes) ]
  | Lock_acquire l -> [ ("lock", String l.lock) ]
  | Lock_contend l -> [ ("lock", String l.lock) ]
  | Bound b -> [ ("interface", String b.interface); ("binding", Int b.binding) ]
  | Call_issued c ->
      [ ("proc", String c.proc); ("handle", Int c.handle); ("binding", Int c.binding) ]
  | Call_completed c ->
      [
        ("proc", String c.proc); ("handle", Int c.handle); ("binding", Int c.binding);
        ("ok", String (string_of_bool c.ok));
      ]
  | Call_failed c ->
      [
        ("proc", String c.proc); ("handle", Int c.handle); ("binding", Int c.binding);
        ("reason", String c.reason);
      ]
  | Call_rejected c ->
      [
        ("proc", String c.proc); ("binding", Int c.binding);
        ("reason", String c.reason);
      ]
  | Terminated t -> [ ("domain", String t.domain) ]
  | Net_send s -> [ ("bytes", Int s.bytes) ]
  | Net_recv r -> [ ("bytes", Int r.bytes) ]
  | Net_packet p ->
      [
        ("seq", Int p.seq); ("pkt", Int p.pkt); ("bytes", Int p.bytes);
        ("retransmit", Int (if p.retransmit then 1 else 0));
      ]
  | Slice s -> [ ("category", String (Category.slug s.category)) ]
  | Mark m -> if m.detail = "" then [] else [ ("detail", String m.detail) ]

module H = Lrpc_util.Histogram

(* Plain mutable cells: a registry belongs to one engine, and an engine
   runs on one host domain. *)
type counter = { c_key : string; mutable c_value : int }

type gauge = { g_key : string; mutable g_value : float }

type histogram = { h_key : string; h_hist : H.t }

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* A fully-qualified key: name plus sorted labels, Prometheus-style.
   Identical (name, labels) pairs alias the same instrument. *)
let key name labels =
  match labels with
  | [] -> name
  | labels ->
      let labels = List.sort compare labels in
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let kind_error k what =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered as a different kind (%s)"
       k what)

let counter ?(labels = []) t name =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some (Counter c) -> c
  | Some _ -> kind_error k "wanted a counter"
  | None ->
      let c = { c_key = k; c_value = 0 } in
      Hashtbl.replace t.table k (Counter c);
      c

let gauge ?(labels = []) t name =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some (Gauge g) -> g
  | Some _ -> kind_error k "wanted a gauge"
  | None ->
      let g = { g_key = k; g_value = 0.0 } in
      Hashtbl.replace t.table k (Gauge g);
      g

let histogram ?(labels = []) ?(bin_width = 4) ?(max_value = 4096) t name =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some (Histogram h) -> h
  | Some _ -> kind_error k "wanted a histogram"
  | None ->
      let h = { h_key = k; h_hist = H.create ~bin_width ~max_value } in
      Hashtbl.replace t.table k (Histogram h);
      h

module Counter = struct
  let incr c = c.c_value <- c.c_value + 1
  let add c n = c.c_value <- c.c_value + n
  let value c = c.c_value
  let reset c = c.c_value <- 0
  let name c = c.c_key
end

module Gauge = struct
  let set g v = g.g_value <- v
  let value g = g.g_value
  let name g = g.g_key
end

module Histo = struct
  let observe h v = H.add h.h_hist (max 0 v)

  let observe_us h (d : Time.t) =
    observe h (int_of_float (Float.round (Time.to_us d)))

  let count h = H.count h.h_hist
  let percentile h p = H.percentile h.h_hist p
  let name h = h.h_key
end

(* --- snapshots ---------------------------------------------------------- *)

type histogram_summary = {
  hs_count : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

let by_key (a, _) (b, _) = String.compare a b

let snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun k -> function
      | Counter c -> counters := (k, c.c_value) :: !counters
      | Gauge g -> gauges := (k, g.g_value) :: !gauges
      | Histogram h ->
          let s =
            {
              hs_count = H.count h.h_hist;
              hs_p50 = H.percentile h.h_hist 50.0;
              hs_p90 = H.percentile h.h_hist 90.0;
              hs_p99 = H.percentile h.h_hist 99.0;
            }
          in
          histograms := (k, s) :: !histograms)
    t.table;
  {
    counters = List.sort by_key !counters;
    gauges = List.sort by_key !gauges;
    histograms = List.sort by_key !histograms;
  }

let get_counter s name = List.assoc_opt name s.counters

let get_histogram s name = List.assoc_opt name s.histograms

let render s =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter (fun (k, v) -> line "%-64s %12d" k v) s.counters;
  List.iter (fun (k, v) -> line "%-64s %12.3f" k v) s.gauges;
  List.iter
    (fun (k, h) ->
      line "%-64s n=%-8d p50=%-6d p90=%-6d p99=%d" k h.hs_count h.hs_p50
        h.hs_p90 h.hs_p99)
    s.histograms;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json s =
  let buf = Buffer.create 1024 in
  let entries to_s l =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (to_s v)) l)
  in
  Buffer.add_string buf "{\"counters\":{";
  Buffer.add_string buf (entries string_of_int s.counters);
  Buffer.add_string buf "},\"gauges\":{";
  Buffer.add_string buf
    (entries (fun v -> Printf.sprintf "%.6g" v) s.gauges);
  Buffer.add_string buf "},\"histograms\":{";
  (* An empty histogram has no quantiles worth serializing — its p50/p90/
     p99 would all read as the meaningless 0 default — so it is omitted
     entirely rather than emitting garbage. *)
  Buffer.add_string buf
    (entries
       (fun h ->
         Printf.sprintf "{\"count\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d}"
           h.hs_count h.hs_p50 h.hs_p90 h.hs_p99)
       (List.filter (fun (_, h) -> h.hs_count > 0) s.histograms));
  Buffer.add_string buf "}}";
  Buffer.contents buf

module H = Lrpc_util.Histogram
module Json = Lrpc_util.Json

(* Plain mutable cells: a registry belongs to one engine, and an engine
   runs on one host domain. *)
type counter = { c_key : string; mutable c_value : int }

(* A gauge holds the last value set, or reads an int at snapshot time
   from [g_source] when one is attached. *)
type gauge = {
  g_key : string;
  mutable g_value : float;
  mutable g_source : (unit -> int) option;
}

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
      let g = { g_key = k; g_value = 0.0; g_source = None } in
      Hashtbl.replace t.table k (Gauge g);
      g

let gauge_of_int ?labels t name read =
  (gauge ?labels t name).g_source <- Some read

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

  let value g =
    match g.g_source with
    | None -> g.g_value
    | Some read -> float_of_int (read ())

  let name g = g.g_key
end

module Histo = struct
  let observe h v = H.add h.h_hist (Int.max 0 v)

  let observe_us h d = observe h (int_of_float (Float.round (Time.to_us d)))

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
      | Gauge g -> gauges := (k, Gauge.value g) :: !gauges
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

let to_json s =
  let obj value l = Json.Obj (List.map (fun (k, v) -> (k, value v)) l) in
  let summary h =
    Json.(
      Obj
        [
          ("count", Int h.hs_count); ("p50", Int h.hs_p50);
          ("p90", Int h.hs_p90); ("p99", Int h.hs_p99);
        ])
  in
  (* An empty histogram has no quantiles worth serializing — its p50/
     p90/p99 would all read as the meaningless 0 default — so it is
     omitted entirely rather than emitting garbage. *)
  let sampled = List.filter (fun (_, h) -> h.hs_count > 0) s.histograms in
  Json.to_string
    (Obj
       [
         ("counters", obj (fun v -> Json.Int v) s.counters);
         ("gauges", obj (fun v -> Json.Float v) s.gauges);
         ("histograms", obj summary sampled);
       ])

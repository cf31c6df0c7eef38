(* The per-layer view every traced run reports: self time per layer,
   the benchmark's own unattributed time, and the tracing overhead
   (traced minus untraced round time). *)

open Bench

(* The layers whose public functions some workload's rounds call
   directly.  The rns kernels, the serving nodes, the tenant store and
   the pool do their work inside those calls; their own metrics
   (rns.*_us, serve.*, tenant.*, pool.busy_frac) measure them. *)
let layers = [ "nn"; "compiler"; "sim"; "exec"; "workloads"; "ckks"; "emulator"; "fleet" ]

(* Names of the metrics [common] returns. *)
let names =
  List.map (fun l -> l ^ ".self_ms") layers
  @ [ "bench.self_ms"; "trace.round_ms"; "trace.untraced_round_ms"; "trace.overhead_ms";
      "trace.attributed_frac" ]

(* [ss] are the spans of the traced rounds, whose timed parts took
   [traced_round_s] on the main domain.  The work done in them is that
   time, less the time the main domain spends waiting on pool
   jobs ("bench.pool_wait" spans), plus the time of those jobs
   ("bench.job" spans, on the workers).  Layer self times sum over
   every domain and are given per round.  [trace.attributed_frac] is the
   share of the work that some layer's span accounts for; the rest
   ([bench.self_ms]) is the benchmark's own glue and untraced calls. *)
let common ss ~traced_round_s ~untraced_round_s =
  let rounds = Float.of_int (max 1 (List.length traced_round_s)) in
  let selfs = self_times ss in
  let self_of pred =
    List.fold_left (fun a (s, t) -> if pred s then a +. t else a) 0.0 selfs
  in
  let per_layer =
    List.map
      (fun l ->
        single (l ^ ".self_ms") "ms" Host (1e3 *. self_of (fun s -> layer_of s.name = l) /. rounds))
      layers
  in
  let work =
    List.fold_left ( +. ) 0.0 traced_round_s -. span_total ss "bench.pool_wait"
    +. span_total ss "bench.job"
  in
  let attributed = self_of (fun s -> List.mem (layer_of s.name) layers) in
  let traced = median traced_round_s and untraced = median untraced_round_s in
  per_layer
  @ [ single "bench.self_ms" "ms" Host (1e3 *. (work -. attributed) /. rounds);
      of_samples "trace.round_ms" "ms" Host (List.map (fun s -> 1e3 *. s) traced_round_s);
      of_samples "trace.untraced_round_ms" "ms" Host (List.map (fun s -> 1e3 *. s) untraced_round_s);
      single "trace.overhead_ms" "ms" Host (1e3 *. (traced -. untraced));
      single "trace.attributed_frac" "frac" Host (attributed /. Float.max 1e-9 work) ]

(* Workload "tenant-fleet": the multi-tenant fleet of the quick tenant
   preset (64 zipf tenants, 4 nodes, locality router, key rotation
   mid-trace, transciphering ingress) driven by Fleet.run with
   open-loop Poisson arrivals and a pool of the host's cores.
   Calibration (the real compiles behind every serving class) is
   set-up; the timed part is the serving simulation itself, whose
   compile lookups all hit the warm result cache.

   Offered rates are fixed absolute values, not multiples of a freshly
   calibrated capacity: recalibrating would cancel a simulated-latency
   gain out of the latency figures.  They were frozen from the
   capacity calibrated at the commit that introduced this benchmark
   (4 nodes x 2 workers / mean service). *)

open Bench
module Exec = Cinnamon_exec
module Node = Cinnamon_serve.Node
module Slo = Cinnamon_serve.Slo
module Loadgen = Cinnamon_serve.Loadgen
module Request = Cinnamon_serve.Request
module Response = Cinnamon_serve.Response
module Fleet = Cinnamon_fleet.Fleet
module Trace = Cinnamon_fleet.Trace
module Router = Cinnamon_fleet.Router
module Tenant_bench = Cinnamon_fleet.Tenant_bench
module Store = Cinnamon_tenant.Store
module Key_set = Cinnamon_tenant.Key_set
module Tenant_id = Cinnamon_tenant.Tenant_id
module Epoch = Cinnamon_tenant.Epoch
module Transcipher = Cinnamon_tenant.Transcipher

let preset = Tenant_bench.quick

(* Requests per offered rate. *)
let requests = 4000

(* The rate grid (virtual requests/s) searched for the highest rate
   meeting the latency limit; [lo_rps] sits below the capacity knee
   (about 42 requests/s) and [hi_rps] near it. *)
let grid = [ 2.0; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 15.0; 20.0; 30.0; 40.0 ]
let lo_rps = 10.0
let hi_rps = 30.0

(* p99 latency limit (virtual ms) for [max_rps_slo]. *)
let p99_limit_ms = 1000.0

type env = {
  pool : Exec.Pool.t;
  calibrated : (Loadgen.class_spec * float) list;
  mean_service : float;
  set_bytes : int;
  transcipher_s : float;
}

let setup ~jobs () =
  let pool = Exec.Pool.create ~jobs () in
  Exec.Result_cache.clear_memory ();
  let compile = preset.Tenant_bench.tb_compile in
  let calibrated =
    span "serve.calibrate" (fun () -> Loadgen.calibrate ~pool ~compile preset.Tenant_bench.tb_mix)
  in
  let transcipher_s =
    let sys = (List.hd preset.Tenant_bench.tb_mix).Loadgen.cls_system in
    match
      span "serve.calibrate" (fun () ->
          Loadgen.calibrate ~pool ~compile
            [ { Loadgen.cls_bench = "transcipher"; cls_system = sys; cls_weight = 1.0 } ])
    with
    | [ (_, s) ] -> s
    | _ -> invalid_arg "tenant-fleet: transcipher calibration"
  in
  let total_weight = List.fold_left (fun a (c, _) -> a +. c.Loadgen.cls_weight) 0.0 calibrated in
  let mean_service =
    List.fold_left (fun a (c, s) -> a +. (c.Loadgen.cls_weight /. total_weight *. s)) 0.0 calibrated
  in
  let set_bytes =
    Key_set.bytes
      (Key_set.make (Key_set.profile_of_config compile) ~tenant:Tenant_id.default ~epoch:Epoch.zero
         ~rotations:preset.Tenant_bench.tb_rotations ~conjugation:preset.Tenant_bench.tb_conjugation)
  in
  { pool; calibrated; mean_service; set_bytes; transcipher_s }

(* The fleet configuration of the tenant preset at one offered rate
   (the rotation period follows the trace's duration, as the preset
   defines it). *)
let fleet_config e ~rate =
  let p = preset in
  let compile = p.Tenant_bench.tb_compile in
  let set_gb = Float.of_int e.set_bytes /. 1e9 in
  let tenancy =
    {
      Fleet.tn_store =
        {
          Store.sc_profile = Key_set.profile_of_config compile;
          sc_rotations = p.Tenant_bench.tb_rotations;
          sc_conjugation = p.Tenant_bench.tb_conjugation;
          sc_rotation_period_s = Float.of_int requests /. rate /. p.Tenant_bench.tb_rotation_periods;
        };
      tn_key_capacity_bytes =
        max 1 (int_of_float (p.Tenant_bench.tb_key_capacity_sets *. Float.of_int e.set_bytes));
      tn_key_load_s_per_gb = p.Tenant_bench.tb_key_load_factor *. e.mean_service /. set_gb;
      tn_transcipher_s = e.transcipher_s;
      tn_upload = Transcipher.upload_of_config compile;
    }
  in
  {
    Fleet.fc_nodes = p.Tenant_bench.tb_nodes;
    fc_policy = Router.Locality;
    fc_key_slots = 1;
    fc_key_load_s = 0.0;
    fc_autoscale = None;
    fc_collect_responses = true;
    fc_tenancy = Some tenancy;
  }

let arrivals e ~seed ~rate =
  let p = preset in
  span "fleet.trace" (fun () ->
      Trace.generate
        {
          Trace.tr_shape = Trace.Poisson { rate_rps = rate };
          tr_requests = requests;
          tr_seed = seed;
          tr_deadline_factor = p.Tenant_bench.tb_deadline_factor;
          tr_compile = p.Tenant_bench.tb_compile;
          tr_tenants = p.Tenant_bench.tb_tenants;
          tr_tenant_skew = p.Tenant_bench.tb_tenant_skew;
        }
        ~classes:e.calibrated)

(* What one rate's run determines on the virtual clock. *)
type point = {
  rate : float;
  p99_ms : float;  (** over completed requests *)
  p99_offered_ms : float;
      (** over offered requests, a request that missed its SLO counting as infinitely late *)
  missed : int;  (** SLO misses: shed, rejected, failed or completed past its deadline *)
  exec_failed : int;  (** requests whose execution failed permanently *)
  backlog : bool;  (** drained for more than 10% of the arrival span after the last arrival *)
  terminal_ok : bool;  (** every offered request reached exactly one terminal outcome *)
  report : Slo.report;
  result : Fleet.result;
}

(* Nearest-rank 99th percentile; infinite when there are no samples. *)
let p99 xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  if Array.length a = 0 then infinity
  else a.(max 0 (int_of_float (Float.ceil (0.99 *. Float.of_int (Array.length a))) - 1))

let point ~rate (arr : Request.t list) (fr : Fleet.result) =
  let n = List.length arr in
  let seen = Hashtbl.create n in
  List.iter
    (fun (r : Response.t) ->
      let id = r.Response.req.Request.req_id in
      Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
    fr.Fleet.fr_responses;
  let terminal_ok =
    List.length fr.Fleet.fr_responses = n
    && List.for_all (fun (q : Request.t) -> Hashtbl.find_opt seen q.Request.req_id = Some 1) arr
  in
  let rs = fr.Fleet.fr_responses in
  let completed = List.filter_map (fun r -> Option.map (fun l -> 1e3 *. l) (Response.latency_s r)) rs in
  let within r = Response.latency_s r <> None && Response.met_deadline r in
  let missed = List.length (List.filter (fun r -> not (within r)) rs) in
  let exec_failed =
    List.length
      (List.filter (fun (r : Response.t) -> match r.Response.outcome with Response.Failed _ -> true | _ -> false) rs)
  in
  let p99_ms = p99 completed in
  let p99_offered_ms =
    p99 (List.map (fun r -> match Response.latency_s r with Some l when within r -> 1e3 *. l | _ -> infinity) rs)
  in
  let first = List.fold_left (fun a (q : Request.t) -> Float.min a q.Request.req_arrival_s) infinity arr in
  let last = List.fold_left (fun a (q : Request.t) -> Float.max a q.Request.req_arrival_s) 0.0 arr in
  let backlog = fr.Fleet.fr_makespan_s -. last > 0.1 *. (last -. first) in
  let report =
    Slo.report fr.Fleet.fr_slo ~duration_s:(Float.max fr.Fleet.fr_makespan_s 1e-9) ~compiles:0 ~cache_hits:0
  in
  { rate; p99_ms; p99_offered_ms; missed; exec_failed; backlog; terminal_ok; report; result = fr }

(* Everything a point determines; repeated passes must agree on it. *)
let fingerprint pt =
  (pt.rate, pt.p99_ms, pt.missed, pt.backlog, pt.result.Fleet.fr_key_hits, pt.result.Fleet.fr_key_misses,
   pt.report.Slo.rp_completed, pt.report.Slo.rp_batches, pt.result.Fleet.fr_makespan_s)

type pass = {
  points : point list;
  run_s : float;  (** host seconds inside Fleet.run *)
  round_s : float;  (** host seconds generating the traces and running them *)
}

(* One pass: every grid rate, each on its own seeded trace. *)
let pass e ~seed i =
  span ~op:(i + 1) "bench.round" (fun () ->
      let run_s = ref 0.0 and round_s = ref 0.0 in
      let points =
        List.map
          (fun rate ->
            let trace_s, arr = timed (fun () -> arrivals e ~seed ~rate) in
            let dt, fr =
              timed ~settle:false (fun () ->
                  span "fleet.run" (fun () ->
                      Fleet.run ~pool:e.pool (fleet_config e ~rate)
                        ~make_node:(fun id ->
                          Node.make ~name:(Printf.sprintf "node%d" id)
                            ~capacity:preset.Tenant_bench.tb_capacity ~execute:Loadgen.workload_executor ())
                        ~arrivals:arr ()))
            in
            run_s := !run_s +. dt;
            round_s := !round_s +. trace_s +. dt;
            point ~rate arr fr)
          grid
      in
      { points; run_s = !run_s; round_s = !round_s })

let at rate pts = List.find (fun p -> p.rate = rate) pts

(* Highest grid rate such that it and every lower rate meet the p99
   limit with no growing backlog; 0 when none does. *)
let max_rps_slo pts =
  let ok p = p.p99_offered_ms <= p99_limit_ms && not p.backlog in
  let rec go best = function
    | p :: rest when ok p -> go p.rate rest
    | _ -> best
  in
  go 0.0 (List.sort (fun a b -> Float.compare a.rate b.rate) pts)

(* The per-layer metrics a traced run produces besides the common ones. *)
let per_layer =
  [ "p99_ms_lo"; "p99_ms_hi"; "max_rps_slo"; "setup.first_s"; "host_kreq_per_s";
    "serve.calibrate_ms"; "fleet.trace_ms"; "fleet.run_ms"; "fleet.key_hit_rate";
    "fleet.key_penalty_share"; "fleet.key_gb_loaded"; "serve.batches"; "serve.mean_batch";
    "serve.shed_frac"; "serve.slo_miss_frac_lo"; "serve.slo_miss_frac_hi"; "serve.queue_depth_mean";
    "tenant.rotations_started"; "tenant.rotations_completed"; "tenant.cold_start_p99_ms";
    "tenant.transcipher_pct"; "exec.cache_hits" ]

let virtual_metrics pts =
  [ single "p99_ms_lo" "virt_ms" Virtual (at lo_rps pts).p99_ms;
    single "p99_ms_hi" "virt_ms" Virtual (at hi_rps pts).p99_ms;
    single "max_rps_slo" "virt_rps" Virtual (max_rps_slo pts) ]

let run (args : args) =
  tracing := args.trace;
  let setup_s, e = timed_setups 2 ~drop:(fun e -> Exec.Pool.shutdown e.pool) (setup ~jobs:args.jobs) in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown e.pool) @@ fun () ->
  Exec.Result_cache.reset_stats ();
  let passes =
    repeat_for ~min:(if args.trace then 2 else 1) ~seconds:args.seconds (fun i ->
        let traced = args.trace && i mod 2 = 1 in
        tracing := traced;
        let p = pass e ~seed:args.seed i in
        tracing := false;
        (traced, p))
  in
  let cache = Exec.Result_cache.stats () in
  let first = snd (List.hd passes) in
  let problems =
    (if List.exists (fun (_, p) -> List.map fingerprint p.points <> List.map fingerprint first.points) passes
     then [ "virtual results differ between passes of one run" ]
     else [])
    @ List.concat_map
        (fun (_, p) ->
          List.filter_map
            (fun pt ->
              if pt.terminal_ok then None
              else Some (Printf.sprintf "rate %.0f: a request without exactly one terminal outcome" pt.rate))
            p.points)
        passes
    @ (if cache.Exec.Result_cache.misses > 0 then
         [ Printf.sprintf "%d compile(s) missed the warm cache" cache.Exec.Result_cache.misses ]
       else [])
  in
  (* operations: the requests offered at the two fixed operating rates *)
  let ops = List.concat_map (fun (_, p) -> [ at lo_rps p.points; at hi_rps p.points ]) passes in
  let attempted = List.length ops * requests in
  let failed = List.fold_left (fun a pt -> a + pt.exec_failed + if pt.terminal_ok then 0 else 1) 0 ops in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  let common =
    [ of_samples "setup_s" "s" Host setup_s;
      single "peak_rss_mb" "MB" Host (peak_rss_mb ());
      of_samples "round_ms" "ms" Host (List.map (fun p -> 1e3 *. p.round_s) untraced) ]
  in
  let kreq_per_s ps =
    Float.of_int (List.length ps * List.length grid * requests)
    /. List.fold_left (fun a p -> a +. p.run_s) 0.0 ps /. 1e3
  in
  let per_layer =
    if not args.trace then []
    else begin
      let ss = all_spans () in
      let round_ss = List.filter (fun s -> s.op > 0) ss in
      let n_traced = Float.of_int (List.length traced) in
      let hi = at hi_rps first.points in
      let tr = Option.get hi.result.Fleet.fr_tenants in
      let charged = tr.Fleet.tr_base_service_s +. tr.Fleet.tr_key_penalty_s +. tr.Fleet.tr_transcipher_s in
      let cold_p99 =
        match tr.Fleet.tr_cold_start_ms with [] -> 0.0 | cold -> p99 (List.map snd cold)
      in
      let rp = hi.report in
      Trace_report.common round_ss ~traced_round_s:(List.map (fun p -> p.round_s) traced)
        ~untraced_round_s:(List.map (fun p -> p.round_s) untraced)
      @ virtual_metrics first.points
      @ [ single "setup.first_s" "s" Host (List.hd setup_s);
          single "host_kreq_per_s" "kreq/s" Host (kreq_per_s untraced);
          single "serve.calibrate_ms" "ms" Host
            (1e3 *. span_total ss "serve.calibrate" /. Float.of_int (List.length setup_s));
          single "fleet.trace_ms" "ms" Host (1e3 *. span_total round_ss "fleet.trace" /. n_traced);
          single "fleet.run_ms" "ms" Host (1e3 *. span_total round_ss "fleet.run" /. n_traced);
          single "fleet.key_hit_rate" "frac" Virtual (Fleet.key_hit_rate hi.result);
          single "fleet.key_penalty_share" "frac" Virtual
            (if charged > 0.0 then tr.Fleet.tr_key_penalty_s /. charged else 0.0);
          single "fleet.key_gb_loaded" "GB" Virtual (Float.of_int tr.Fleet.tr_key_bytes_loaded /. 1e9);
          single "serve.batches" "count" Virtual (Float.of_int rp.Slo.rp_batches);
          single "serve.mean_batch" "count" Virtual rp.Slo.rp_mean_batch;
          single "serve.shed_frac" "frac" Virtual rp.Slo.rp_shed_rate;
          single "serve.slo_miss_frac_lo" "frac" Virtual
            (Float.of_int (at lo_rps first.points).missed /. Float.of_int requests);
          single "serve.slo_miss_frac_hi" "frac" Virtual (Float.of_int hi.missed /. Float.of_int requests);
          single "serve.queue_depth_mean" "count" Virtual rp.Slo.rp_queue_depth_mean;
          single "tenant.rotations_started" "count" Virtual
            (Float.of_int tr.Fleet.tr_store.Store.st_rotations_started);
          single "tenant.rotations_completed" "count" Virtual
            (Float.of_int tr.Fleet.tr_store.Store.st_rotations_completed);
          single "tenant.cold_start_p99_ms" "virt_ms" Virtual cold_p99;
          single "tenant.transcipher_pct" "%" Virtual
            (if tr.Fleet.tr_base_service_s > 0.0 then
               100.0 *. tr.Fleet.tr_transcipher_s /. tr.Fleet.tr_base_service_s
             else 0.0);
          single "exec.cache_hits" "count" Count (Float.of_int cache.Exec.Result_cache.hits) ]
    end
  in
  {
    metrics = common @ per_layer;
    attempted;
    failed;
    notes =
      [ ("capacity_rps", Json.Float (Float.of_int (preset.Tenant_bench.tb_nodes * preset.Tenant_bench.tb_capacity.Node.workers) /. e.mean_service));
        ("mean_service_s", Json.Float e.mean_service);
        ("requests_per_rate", Json.Int requests); ("lo_rps", Json.Float lo_rps); ("hi_rps", Json.Float hi_rps);
        ("p99_limit_ms", Json.Float p99_limit_ms); ("passes", Json.Int (List.length passes));
        ("host_kreq_per_s", Json.Float (kreq_per_s untraced));
        ("grid",
          Json.List
            (List.map
               (fun pt ->
                 Json.Obj
                   [ ("rate", Json.Float pt.rate); ("p99_ms", Json.Float (Float.min pt.p99_ms 1e300));
                     ("p99_offered_ms", Json.Float (Float.min pt.p99_offered_ms 1e300));
                     ("slo_missed", Json.Int pt.missed); ("shed", Json.Int pt.report.Slo.rp_shed);
                     ("rejected", Json.Int (pt.report.Slo.rp_offered - pt.report.Slo.rp_admitted));
                     ("exec_failed", Json.Int pt.exec_failed); ("backlog", Json.Bool pt.backlog) ])
               first.points)) ]
      @ List.map (fun m -> (m.m_name, Json.Float (Float.min m.m_value 1e300))) (virtual_metrics first.points);
    problems;
  }

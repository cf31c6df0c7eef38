(* Workload "toolchain": the paper's Table 2 (four benchmarks on four
   systems, 16 cells) plus the three graph front-end benchmarks on
   Cinnamon-4, compiled, verified and simulated from a cold in-memory
   result cache through [Runner.run_sweep ~verify:true] at jobs = the
   host's cores.  The allocator dominates it; the RNS/CKKS kernels are
   not touched.  Seedless: its programs are fixed.

   The traced run replays every distinct compile job pass by pass
   (Lower_poly, Lower_limb with the keyswitch pass, Lower_isa,
   Pipeline.verify, Check, Simulator.run) so each layer gets its own
   span, and checks the replica against Pipeline.compile (instruction
   count, spills, reloads) and against the untraced sweep (cycles), so
   it cannot drift from what the toolchain really does. *)

open Bench
module CC = Cinnamon_compiler.Compile_config
module Pipeline = Cinnamon_compiler.Pipeline
module Regalloc = Cinnamon_compiler.Regalloc
module Isa = Cinnamon_isa.Isa
module Limb_ir = Cinnamon_ir.Limb_ir
module Sim = Cinnamon_sim.Simulator
module SC = Cinnamon_sim.Sim_config
module Exec = Cinnamon_exec
module Runner = Cinnamon_workloads.Runner
module Specs = Cinnamon_workloads.Specs
module Kernels = Cinnamon_workloads.Kernels
module Check = Cinnamon_emulator.Check
module Plan = Cinnamon_nn.Plan

let pairs () =
  List.concat_map (fun b -> List.map (fun s -> (s, b)) Runner.all_systems) Specs.all
  @ List.map (fun (_, b) -> (Runner.cinnamon_4, b)) Specs.graph_benchmarks

let profile_names tag =
  List.map
    (fun m -> m ^ "." ^ tag)
    [ "sim.util.compute"; "sim.util.memory"; "sim.util.network"; "sim.stall.operand_frac";
      "sim.stall.network_frac" ]

(* The per-layer metrics a traced run produces besides the common ones. *)
let per_layer =
  [ "setup.first_s"; "toolchain_s"; "nn.plan_ms"; "nn.lower_ms"; "nn.rotations"; "nn.keyswitches";
    "compiler.lower_poly_ms"; "compiler.lower_limb_ms"; "compiler.regalloc_isa_ms";
    "compiler.verify_ms"; "compiler.isa_instrs"; "compiler.spills"; "compiler.reloads";
    "compiler.comm_bytes"; "compiler.ks_batched_sites"; "sim.run_ms"; "sim.host_ns_per_instr";
    "exec.cache_misses"; "exec.cache_hits"; "pool.busy_frac"; "workloads.compose_ms";
    "sim_bert_c12_s"; "sim_bootstrap_c4_ms"; "sim_vs_paper_x" ]
  @ List.map
      (fun ((sys : Runner.system), (b : Specs.benchmark)) ->
        Printf.sprintf "sim.cycles.%s.%s" b.Specs.bench_name sys.Runner.sys_name)
      (pairs ())
  @ profile_names "bootstrap_c4" @ profile_names "bert_c12"

(* The distinct compile+simulate jobs behind a sweep, in first-appearance
   order: the placement rule of Runner (a single-instance segment on a
   multi-group system runs widened with both EvalMod streams), deduped
   by the runner's own cache key. *)
let targets pairs =
  let config = CC.paper () in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ((sys : Runner.system), (b : Specs.benchmark)) ->
      List.filter_map
        (fun (s : Specs.segment) ->
          let sys, cfg =
            if s.Specs.instances = 1 && sys.Runner.groups > 1 then
              (Runner.widened sys, { config with CC.progpar = true })
            else (sys, config)
          in
          let key = Exec.Cache_key.to_string (Runner.cache_key ~config:cfg sys s.Specs.kernel) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (sys, cfg, s.Specs.kernel)
          end)
        b.Specs.segments)
    pairs

(* The ciphertext program Runner.compile_kernel builds for a job. *)
let program (cfg : CC.t) kernel =
  match (cfg.CC.progpar, kernel) with
  | true, Specs.K_bootstrap shape -> Kernels.bootstrap_program ~shape ~progpar:true ()
  | _ -> Specs.kernel_program kernel

let job_name ((sys : Runner.system), _, kernel) =
  Printf.sprintf "%s@%s" (Specs.kernel_name kernel) sys.Runner.sys_name

let isa_instrs (m : Isa.machine_program) =
  Array.fold_left (fun a p -> a + Array.length p.Isa.instrs) 0 m.Isa.programs

let sum_ra f (ra : Regalloc.stats array) = Array.fold_left (fun a s -> a + f s) 0 ra

(* Everything before the first timed operation: the job list and every
   job's input program, and an empty result cache. *)
let setup () =
  let ps = pairs () in
  let ts = targets ps in
  List.iter (fun (_, cfg, k) -> ignore (program cfg k)) ts;
  Exec.Result_cache.clear_memory ();
  (ps, ts)

type sweep_out = {
  sw : Runner.sweep option;
  seconds : float;
  failed_jobs : string list;
  stats : Exec.Result_cache.stats;
}

(* One untraced round: the cold sweep itself.  A sweep that raises is
   re-run job by job, untimed, to name the failing jobs. *)
let untraced_round ~jobs ps ts =
  Exec.Result_cache.clear_memory ();
  Exec.Result_cache.reset_stats ();
  let seconds, sw =
    timed (fun () -> try Some (Runner.run_sweep ~verify:true ~jobs ps) with _ -> None)
  in
  let stats = Exec.Result_cache.stats () in
  let failed_jobs =
    match sw with
    | Some _ -> []
    | None ->
      List.filter_map
        (fun ((sys, cfg, k) as t) ->
          match Runner.simulate_kernel ~config:cfg ~use_cache:false ~verify:true sys k with
          | _ -> None
          | exception _ -> Some (job_name t))
        ts
  in
  { sw; seconds; failed_jobs; stats }

type job_out = {
  j_name : string;
  j_instrs : int;
  j_spills : int;
  j_reloads : int;
  j_comm_bytes : int;
  j_batched : int;
  j_cycles : int;
  j_sim : Sim.result;
  j_plan : Plan.t option;
  j_problems : string list;
}

(* One job, pass by pass, each pass under its layer's span. *)
let replica ((sys : Runner.system), cfg, kernel) =
  let plan = ref None in
  let prog =
    match kernel with
    | Specs.K_graph g when not cfg.CC.progpar ->
      let p = span "nn.plan" (fun () -> Plan.make g) in
      plan := Some p;
      span "nn.lower" (fun () -> Cinnamon_nn.Lower.lower ~plan:p g)
    | _ -> span "workloads.kernel_program" (fun () -> program cfg kernel)
  in
  let ecfg = Runner.effective_config cfg sys in
  let poly = span "compiler.lower_poly" (fun () -> Cinnamon_compiler.Lower_poly.lower ecfg prog) in
  let limb, ks_report =
    span "compiler.lower_limb" (fun () -> Cinnamon_compiler.Lower_limb.lower ecfg poly)
  in
  let machine, regalloc =
    span "compiler.regalloc_isa" (fun () ->
        Cinnamon_compiler.Lower_isa.translate ~num_regs:(CC.registers ecfg) ~n:(CC.n ecfg)
          ~limb_bytes:(CC.limb_bytes ecfg) limb)
  in
  let comm = Limb_ir.comm_stats limb in
  let r = { Pipeline.cfg = ecfg; ct = prog; poly; limb; ks_report; machine; regalloc; comm } in
  let violations = span "compiler.verify" (fun () -> Pipeline.verify r) in
  let check = span "emulator.check" (fun () -> Check.check machine) in
  let sim = span "sim.run" (fun () -> Sim.run sys.Runner.group_sim machine) in
  let name = job_name (sys, cfg, kernel) in
  let rep = ks_report in
  {
    j_name = name;
    j_instrs = isa_instrs machine;
    j_spills = sum_ra (fun s -> s.Regalloc.spills) regalloc;
    j_reloads = sum_ra (fun s -> s.Regalloc.reloads) regalloc;
    j_comm_bytes = comm.Limb_ir.bytes_moved;
    j_batched =
      rep.Cinnamon_compiler.Keyswitch_pass.pattern_a_sites
      + rep.Cinnamon_compiler.Keyswitch_pass.pattern_b_sites;
    j_cycles = sim.Sim.cycles;
    j_sim = sim;
    j_plan = !plan;
    j_problems =
      (if violations = [] then []
       else [ Printf.sprintf "%s: %d verifier violation(s)" name (List.length violations) ])
      @ if Check.ok check then [] else [ Printf.sprintf "%s: Check.ok is false" name ];
  }

(* ---------------------------------------------------------------- metrics *)

let cell_key (r : Runner.bench_result) = (r.Runner.br_bench, r.Runner.br_system)

let find_cell (sw : Runner.sweep) bench system =
  List.find (fun r -> cell_key r = (bench, system)) sw.Runner.sw_results

(* Simulated headline figures of a sweep. *)
let sim_metrics (sw : Runner.sweep) =
  let ratios =
    List.concat_map
      (fun (b : Specs.benchmark) ->
        List.filter_map
          (fun (sys : Runner.system) ->
            match List.assoc_opt sys.Runner.sys_name b.Specs.paper_times with
            | Some paper -> Some ((find_cell sw b.Specs.bench_name sys.Runner.sys_name).Runner.br_seconds /. paper)
            | None -> None)
          Runner.all_systems)
      Specs.all
  in
  [ single "sim_bert_c12_s" "sim_s" Sim (find_cell sw "BERT" "Cinnamon-12").Runner.br_seconds;
    single "sim_bootstrap_c4_ms" "sim_ms" Sim
      (1e3 *. (find_cell sw "Bootstrap" "Cinnamon-4").Runner.br_seconds);
    single "sim_vs_paper_x" "x" Sim (Cinnamon_util.Stats.geomean ratios) ]

let sys_of_name name = List.find (fun (s : Runner.system) -> s.Runner.sys_name = name) Runner.all_systems

let cell_cycles (sw : Runner.sweep) =
  List.map
    (fun (r : Runner.bench_result) ->
      let sys = sys_of_name r.Runner.br_system in
      let cycles = Float.round (r.Runner.br_seconds *. sys.Runner.sim.SC.clock_ghz *. 1e9) in
      single (Printf.sprintf "sim.cycles.%s.%s" r.Runner.br_bench r.Runner.br_system) "cycles" Sim cycles)
    sw.Runner.sw_results

(* Utilization and stall fractions of a cell, time-weighted over its
   segments' kernel simulations. *)
let cell_profile (sw : Runner.sweep) bench system tag =
  let r = find_cell sw bench system in
  let kernel_result seg =
    let find sys_name =
      List.find_opt
        (fun (k : Runner.kernel_time) -> k.Runner.kt_kernel = seg && k.Runner.kt_system = sys_name)
        sw.Runner.sw_kernels
    in
    match find system with Some k -> k | None -> Option.get (find (system ^ ":wide"))
  in
  let total = r.Runner.br_seconds in
  let stall f =
    List.fold_left
      (fun acc (s : Runner.segment_time) ->
        let k = (kernel_result s.Runner.seg_kernel).Runner.kt_result in
        let part = Array.fold_left (fun a c -> a + f c) 0 k.Sim.per_chip_stats in
        let whole = Array.fold_left (fun a c -> a + c.Sim.cs_total) 0 k.Sim.per_chip_stats in
        acc +. (s.Runner.seg_seconds *. Float.of_int part /. Float.of_int (max 1 whole)))
      0.0 r.Runner.br_segments
    /. total
  in
  let u = r.Runner.br_util in
  List.map2
    (fun name v -> single name "frac" Sim v)
    (profile_names tag)
    [ u.Sim.compute; u.Sim.memory; u.Sim.network; stall (fun c -> c.Sim.cs_stall_operand);
      stall (fun c -> c.Sim.cs_stall_network) ]

(* Everything a sweep determines exactly; two runs must agree on it. *)
let fingerprint (sw : Runner.sweep) =
  List.map (fun (r : Runner.bench_result) -> (cell_key r, r.Runner.br_seconds)) sw.Runner.sw_results
  @ List.map
      (fun (k : Runner.kernel_time) ->
        ((k.Runner.kt_kernel, k.Runner.kt_system), Float.of_int k.Runner.kt_result.Sim.cycles))
      sw.Runner.sw_kernels

(* ------------------------------------------------------------------- run *)

let run (args : args) =
  let setups = List.init 31 (fun _ -> timed ~settle:false setup) in
  let ps, ts = snd (List.hd setups) in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let account (o : sweep_out) =
    attempted := !attempted + List.length ts;
    failed := !failed + if Option.is_none o.sw then max 1 (List.length o.failed_jobs) else 0;
    problems := !problems @ List.map (fun j -> "job failed: " ^ j) o.failed_jobs
  in
  let rounds =
    if args.trace then [ untraced_round ~jobs:args.jobs ps ts ]
    else repeat_for ~seconds:args.seconds (fun _ -> untraced_round ~jobs:args.jobs ps ts)
  in
  List.iter account rounds;
  let sweeps = List.filter_map (fun o -> o.sw) rounds in
  (match sweeps with
   | first :: rest ->
     if List.exists (fun s -> fingerprint s <> fingerprint first) rest then
       problems := "simulated results differ between rounds of one run" :: !problems
   | [] -> ());
  let round_s = List.map (fun o -> o.seconds) rounds in
  let common =
    [ of_samples "setup_s" "s" Host (List.map fst setups);
      single "peak_rss_mb" "MB" Host (peak_rss_mb ());
      of_samples "round_ms" "ms" Host (List.map (fun s -> 1e3 *. s) round_s) ]
  in
  let per_layer =
    if not args.trace then []
    else
      match sweeps with
      | [] -> []
      | sw :: _ ->
        let o = List.hd rounds in
        (* traced replica round on a fresh pool, then the warm composition *)
        Exec.Result_cache.clear_memory ();
        tracing := true;
        let pool = Exec.Pool.create ~jobs:args.jobs () in
        Gc.full_major ();
        let t0 = now () in
        let jobs_out, pool_wall, compose =
          Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
          span ~op:1 "bench.round" (fun () ->
              let pool_wall, jobs_out =
                timed ~settle:false (fun () ->
                    span "bench.pool_wait" (fun () ->
                        let parent = current_span () in
                        Exec.Pool.map pool
                          (fun (i, t) -> span ~parent ~op:(2 + i) "bench.job" (fun () -> replica t))
                          (List.mapi (fun i t -> (i, t)) ts)))
              in
              span "exec.fill" (fun () ->
                  List.iter2
                    (fun ((sys, cfg, k) : Runner.system * CC.t * Specs.kernel) j ->
                      ignore
                        (Exec.Result_cache.find_or_compute ~key:(Runner.cache_key ~config:cfg sys k)
                           (fun () -> j.j_sim)))
                    ts jobs_out);
              let compose =
                span "workloads.compose" (fun () ->
                    List.map (fun (sys, b) -> Runner.run_benchmark ~verify:true sys b) ps)
              in
              (jobs_out, pool_wall, compose))
        in
        let traced_round = now () -. t0 in
        tracing := false;
        (* the replica against the real pipeline and the untraced sweep *)
        let reference =
          Exec.Pool.run ~jobs:args.jobs
            (fun (sys, cfg, k) ->
              let r = Runner.compile_kernel ~config:cfg sys k in
              (isa_instrs r.Pipeline.machine, sum_ra (fun s -> s.Regalloc.spills) r.Pipeline.regalloc,
               sum_ra (fun s -> s.Regalloc.reloads) r.Pipeline.regalloc))
            ts
        in
        List.iter2
          (fun j (instrs, spills, reloads) ->
            if (j.j_instrs, j.j_spills, j.j_reloads) <> (instrs, spills, reloads) then
              problems := Printf.sprintf "replica of %s differs from Pipeline.compile" j.j_name :: !problems)
          jobs_out reference;
        if List.length jobs_out <> List.length sw.Runner.sw_kernels then
          problems := "the replica's job list differs from the sweep's" :: !problems
        else
          List.iter2
            (fun j (k : Runner.kernel_time) ->
              if j.j_cycles <> k.Runner.kt_result.Sim.cycles then
                problems := Printf.sprintf "replica of %s: cycles differ from the sweep" j.j_name :: !problems)
            jobs_out sw.Runner.sw_kernels;
        if List.map (fun (r : Runner.bench_result) -> r.Runner.br_seconds) compose
           <> List.map (fun (r : Runner.bench_result) -> r.Runner.br_seconds) sw.Runner.sw_results
        then problems := "replica composition differs from the sweep" :: !problems;
        List.iter (fun j -> problems := !problems @ j.j_problems) jobs_out;
        attempted := !attempted + List.length ts;
        failed := !failed + List.length (List.filter (fun j -> j.j_problems <> []) jobs_out);
        let ss = all_spans () in
        let ms name = 1e3 *. span_total ss name in
        let sum f = Float.of_int (List.fold_left (fun a j -> a + f j) 0 jobs_out) in
        let plans = List.filter_map (fun j -> j.j_plan) jobs_out in
        let job_s = span_total ss "bench.job" in
        Trace_report.common ss ~traced_round_s:[ traced_round ] ~untraced_round_s:[ o.seconds ]
        @ [ single "setup.first_s" "s" Host (fst (List.hd setups));
            single "toolchain_s" "s" Host o.seconds;
            single "nn.plan_ms" "ms" Host (ms "nn.plan");
            single "nn.lower_ms" "ms" Host (ms "nn.lower");
            single "nn.rotations" "count" Count
              (Float.of_int (List.fold_left (fun a p -> a + p.Plan.pl_rotations) 0 plans));
            single "nn.keyswitches" "count" Count
              (Float.of_int (List.fold_left (fun a p -> a + Plan.keyswitches p) 0 plans));
            single "compiler.lower_poly_ms" "ms" Host (ms "compiler.lower_poly");
            single "compiler.lower_limb_ms" "ms" Host (ms "compiler.lower_limb");
            single "compiler.regalloc_isa_ms" "ms" Host (ms "compiler.regalloc_isa");
            single "compiler.verify_ms" "ms" Host (ms "compiler.verify");
            single "compiler.isa_instrs" "count" Count (sum (fun j -> j.j_instrs));
            single "compiler.spills" "count" Count (sum (fun j -> j.j_spills));
            single "compiler.reloads" "count" Count (sum (fun j -> j.j_reloads));
            single "compiler.comm_bytes" "bytes" Count (sum (fun j -> j.j_comm_bytes));
            single "compiler.ks_batched_sites" "count" Count (sum (fun j -> j.j_batched));
            single "sim.run_ms" "ms" Host (ms "sim.run");
            single "sim.host_ns_per_instr" "ns" Host
              (1e9 *. span_total ss "sim.run" /. Float.max 1.0 (sum (fun j -> j.j_instrs)));
            single "exec.cache_misses" "count" Count (Float.of_int o.stats.Exec.Result_cache.misses);
            single "exec.cache_hits" "count" Count (Float.of_int o.stats.Exec.Result_cache.hits);
            single "pool.busy_frac" "frac" Host (job_s /. (pool_wall *. Float.of_int args.jobs));
            single "workloads.compose_ms" "ms" Host (ms "workloads.compose") ]
        @ sim_metrics sw @ cell_cycles sw
        @ cell_profile sw "Bootstrap" "Cinnamon-4" "bootstrap_c4"
        @ cell_profile sw "BERT" "Cinnamon-12" "bert_c12"
  in
  let sim_notes =
    match sweeps with
    | sw :: _ -> List.map (fun m -> (m.m_name, Json.Float m.m_value)) (sim_metrics sw)
    | [] -> []
  in
  {
    metrics = common @ per_layer;
    attempted = !attempted;
    failed = !failed;
    notes =
      [ ("toolchain_s", Json.Float (median round_s));
        ("cells", Json.Int (List.length ps)); ("jobs_per_round", Json.Int (List.length ts));
        ("rounds", Json.Int (List.length rounds)); ("cache", Json.Str "cold in-memory, no --cache-dir") ]
      @ sim_notes;
    problems = !problems;
  }

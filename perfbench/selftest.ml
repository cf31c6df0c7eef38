(* The benchmark's own determinism checks: what is modelled must not
   depend on the run, the worker count, or anything but the seed.

   - Two toolchain runs report identical simulated metrics and
     compiler counts.
   - tenant-fleet's virtual metrics are identical for one seed, and
     identical at jobs 1 and the host's core count.
   - The seed reaches the inputs: another seed changes them. *)

open Bench

let metrics run (args : args) =
  reset_spans ();
  let o = run args in
  reset_spans ();
  o.metrics

let values pred ms =
  List.filter_map (fun m -> if pred m then Some (m.m_name, m.m_value) else None) ms

let run (args : args) =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%s  %s\n%!" (if ok then "ok  " else "FAIL") name;
    if not ok then incr failures
  in
  let traced w seed = { args with workload = w; seed; seconds = 1.0; trace = true } in
  let exact m =
    m.m_base = Sim || (m.m_base = Count && String.starts_with ~prefix:"compiler." m.m_name)
  in
  let t1 = values exact (metrics Toolchain.run (traced "toolchain" 1)) in
  let t2 = values exact (metrics Toolchain.run (traced "toolchain" 1)) in
  check "toolchain: simulated metrics and compiler counts identical across runs" (t1 = t2 && t1 <> []);
  let virt m = m.m_base = Virtual in
  let fleet ?(jobs = args.jobs) seed =
    values virt (metrics Tenant_fleet.run { (traced "tenant-fleet" seed) with jobs })
  in
  let f1 = fleet 7 in
  check "tenant-fleet: virtual metrics identical for one seed" (f1 = fleet 7 && f1 <> []);
  check (Printf.sprintf "tenant-fleet: virtual metrics identical at jobs 1 and %d" args.jobs)
    (f1 = fleet ~jobs:1 7);
  check "tenant-fleet: another seed changes the inputs" (f1 <> fleet 8);
  Printf.printf "%d check(s) failed\n" !failures;
  !failures = 0

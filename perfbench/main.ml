(* Entry point: one workload per process, so peak memory is that
   workload's own.  The metric catalog is BENCHMARK.json at the root of
   the checkout (the working directory): an untraced run prints every
   end-to-end metric, a traced run every per-layer metric.  Each
   workload declares the per-layer metrics it produces; a declared
   metric it fails to produce is an error, and a per-layer metric that
   belongs to another workload reads 0. *)

module Json = Cinnamon_util.Json

(* name, run, the per-layer metrics it produces besides Trace_report's *)
let workloads =
  [ ("toolchain", Toolchain.run, Toolchain.per_layer); ("ctops-n16", Ctops.run, Ctops.per_layer);
    ("tenant-fleet", Tenant_fleet.run, Tenant_fleet.per_layer) ]

(* (name, unit) of every metric of one section of BENCHMARK.json. *)
let catalog section =
  let doc =
    match Bench.read_file "BENCHMARK.json" with
    | Some s -> s
    | None -> failwith "BENCHMARK.json not found in the working directory"
  in
  match Json.of_string doc with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    let field k o = Option.bind (Json.member k o) Json.to_str in
    List.map
      (fun m ->
        match (field "name" m, field "unit" m) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ section))
      (Option.value ~default:[] (Option.bind (Json.member section j) Json.to_list))

let run_workload (args : Bench.args) =
  let run, declared =
    match List.find_opt (fun (n, _, _) -> n = args.Bench.workload) workloads with
    | Some (_, run, declared) -> (run, Trace_report.names @ declared)
    | None ->
      raise
        (Arg.Bad
           (Printf.sprintf "unknown workload %S (known: %s)" args.Bench.workload
              (String.concat ", " (List.map (fun (n, _, _) -> n) workloads))))
  in
  let end_to_end = catalog "end_to_end" in
  let all = end_to_end @ catalog "per_layer" in
  let cat = catalog (if args.Bench.trace then "per_layer" else "end_to_end") in
  let o = run args in
  let produced n = List.exists (fun (m : Bench.metric) -> m.Bench.m_name = n) o.Bench.metrics in
  let unit_problems =
    List.filter_map
      (fun (m : Bench.metric) ->
        match List.assoc_opt m.Bench.m_name all with
        | Some u when u = m.Bench.m_unit -> None
        | Some u -> Some (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" m.Bench.m_name m.Bench.m_unit u)
        | None -> Some (Printf.sprintf "metric %s is not in BENCHMARK.json" m.Bench.m_name))
      o.Bench.metrics
  in
  let declaration_problems =
    if not args.Bench.trace then []
    else
      List.filter_map
        (fun (m : Bench.metric) ->
          if List.mem m.Bench.m_name declared || List.mem_assoc m.Bench.m_name end_to_end then None
          else Some (Printf.sprintf "metric %s is not declared by the workload" m.Bench.m_name))
        o.Bench.metrics
      @ List.filter_map
          (fun (n, _) ->
            if List.exists (fun (_, _, d) -> List.mem n d) workloads || List.mem n Trace_report.names
            then None
            else Some (Printf.sprintf "BENCHMARK.json lists %s, which no workload produces" n))
          cat
  in
  (* another workload's per-layer metrics; the workload's own must be produced *)
  let filled =
    if args.Bench.trace then
      List.filter_map
        (fun (n, u) ->
          if List.mem n declared || produced n then None else Some (Bench.single n u Bench.Count 0.0))
        cat
    else []
  in
  let o =
    { o with
      Bench.metrics = o.Bench.metrics @ filled;
      problems = o.Bench.problems @ unit_problems @ declaration_problems }
  in
  Bench.report args ~expected:(List.map fst cat) o

let () =
  match Bench.parse_args Sys.argv with
  | exception Arg.Bad msg ->
    prerr_endline ("error: " ^ msg ^ "\nusage: " ^ Bench.usage);
    exit 2
  | args ->
    let ok = if args.Bench.selftest then Selftest.run args else run_workload args in
    exit (if ok then 0 else 1)

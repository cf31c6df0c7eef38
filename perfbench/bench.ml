(* Shared machinery of the benchmark: command line, clocks, order
   statistics, the in-memory span recorder used by traced runs, host
   metadata, and the result printer.

   Time bases.  Every metric says which clock it comes from:
   - [Host]: wall clock of this process (Unix.gettimeofday);
   - [Sim]: the modelled Cinnamon hardware (deterministic);
   - [Virtual]: the fleet's event clock (deterministic for a seed);
   - [Count]: an exact count or a ratio of counts. *)

module Json = Cinnamon_util.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ args *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** worker domains: the host's core count *)
  selftest : bool;
}

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   main.exe --selftest"

let parse_args argv =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let selftest = ref false in
  let int_of name s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> raise (Arg.Bad (Printf.sprintf "%s expects an integer, got %S" name s))
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of "--seed" v; go rest
    | "--seconds" :: v :: rest -> seconds := Float.of_int (int_of "--seconds" v); go rest
    | "--trace" :: v :: rest -> trace := int_of "--trace" v; go rest
    | "--selftest" :: rest -> selftest := true; go rest
    | a :: _ -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))
  in
  go (List.tl (Array.to_list argv));
  if not !selftest then begin
    if !workload = "" then raise (Arg.Bad "--workload is required");
    if !seed < 0 then raise (Arg.Bad "--seed must be a non-negative integer");
    if !seconds < 1.0 then raise (Arg.Bad "--seconds must be >= 1");
    if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1")
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    jobs = Domain.recommended_domain_count (); selftest = !selftest }

(* ------------------------------------------------------------ statistics *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spread printed here is the
   spread a reader recomputes from the raw samples. *)
let quartiles xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ---------------------------------------------------------------- metrics *)

type base = Host | Sim | Virtual | Count

let base_name = function Host -> "host" | Sim -> "simulated" | Virtual -> "virtual" | Count -> "count"

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_base : base;
  m_samples : int;
  m_q1 : float;
  m_q3 : float;
  m_raw : float list;  (** the samples, in measurement order *)
}

(* A metric reported as the median of its samples, with quartiles. *)
let of_samples name unit base xs =
  let q1, med, q3 = quartiles xs in
  { m_name = name; m_value = med; m_unit = unit; m_base = base; m_samples = List.length xs;
    m_q1 = q1; m_q3 = q3; m_raw = xs }

let single name unit base v = of_samples name unit base [ v ]

(* ---------------------------------------------------------------- tracing

   Spans recorded from the benchmark's own code around calls into each
   layer's public functions.  A span's layer is the prefix of its name
   before the first '.'.  Spans live in memory (one mutex-guarded list,
   domain-safe for pool jobs) and are written out when the run ends.
   Self time subtracts only child spans of the same domain: a pool job
   runs concurrently with the span that submitted it, so its time is
   work done beside that span, not part of it. *)

type span = {
  sid : int;
  parent : int;  (** 0 = root *)
  name : string;
  op : int;  (** operation id: the round or request the span serves *)
  dom : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let next_sid = Atomic.make 1
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let op_key = Domain.DLS.new_key (fun () -> ref 0)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let current_span () = match !(Domain.DLS.get stack_key) with p :: _ -> p | [] -> 0

(* [span ?parent ?op name f] times [f ()] as span [name] when tracing
   is on; otherwise it is [f ()].  [parent] and [op] default to the
   calling domain's innermost open span and current operation. *)
let span ?parent ?op name f =
  if not !tracing then f ()
  else begin
    let stack = Domain.DLS.get stack_key and cur_op = Domain.DLS.get op_key in
    let parent = match parent with Some p -> p | None -> current_span () in
    let saved_op = !cur_op in
    Option.iter (fun o -> cur_op := o) op;
    let sid = Atomic.fetch_and_add next_sid 1 in
    stack := sid :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      let s = { sid; parent; name; op = !cur_op; dom = (Domain.self () :> int); t0; t1 } in
      cur_op := saved_op;
      Mutex.protect spans_lock (fun () -> spans := s :: !spans)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let all_spans () = Mutex.protect spans_lock (fun () -> List.rev !spans)

let reset_spans () =
  tracing := false;
  Mutex.protect spans_lock (fun () -> spans := [])

(* Self time of every span: duration minus same-domain children. *)
let self_times ss =
  let child = Hashtbl.create 256 in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.sid s) ss;
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p when p.dom = s.dom ->
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent))
      | _ -> ())
    ss;
  List.map (fun s -> (s, (s.t1 -. s.t0) -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid))) ss

(* Summed duration (seconds) of the spans named [name]. *)
let span_total ss name =
  List.fold_left (fun a s -> if s.name = name then a +. (s.t1 -. s.t0) else a) 0.0 ss

let spans_json ss =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("id", Json.Int s.sid); ("parent", Json.Int s.parent); ("name", Json.Str s.name);
             ("op", Json.Int s.op); ("domain", Json.Int s.dom); ("start_s", Json.Float s.t0);
             ("end_s", Json.Float s.t1) ])
       ss)

(* ------------------------------------------------------------------- host *)

let read_file path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

let lines_of path = match read_file path with Some s -> String.split_on_char '\n' s | None -> []

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let cpu_model () =
  match List.find_opt (fun l -> String.starts_with ~prefix:"model name" l) (lines_of "/proc/cpuinfo") with
  | Some l -> field_after_colon l
  | None -> "unknown"

(* Peak resident set (VmHWM) of this process, MB. *)
let peak_rss_mb () =
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) (lines_of "/proc/self/status") with
  | Some l -> (
    match String.split_on_char ' ' (field_after_colon l) with
    | kb :: _ -> (match float_of_string_opt kb with Some v -> v /. 1024.0 | None -> nan)
    | [] -> nan)
  | None -> nan

(* Size in bytes of the largest cache sysfs lists for cpu0 ("48K",
   "2048K", "300M", ...); 32 MiB when none is listed. *)
let llc_bytes () =
  let bytes s =
    let s = String.trim s in
    let n = String.length s in
    let scaled k = Option.map (fun v -> v * k) (int_of_string_opt (String.sub s 0 (n - 1))) in
    if n > 1 && s.[n - 1] = 'K' then scaled 1024
    else if n > 1 && s.[n - 1] = 'M' then scaled (1024 * 1024)
    else int_of_string_opt s
  in
  List.init 5 (fun i -> read_file (Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/size" i))
  |> List.filter_map (fun s -> Option.bind s bytes)
  |> List.fold_left max (32 * 1024 * 1024)

let host_json args =
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ())); ("cpu_model", Json.Str (cpu_model ()));
      ("ocaml", Json.Str Sys.ocaml_version); ("flambda", Json.Bool Build_info.flambda);
      ("jobs", Json.Int args.jobs); ("seed", Json.Int args.seed);
      ("seconds", Json.Float args.seconds); ("trace", Json.Bool args.trace) ]

(* ----------------------------------------------------------------- result *)

(* What a workload hands back: its metrics, the operations it attempted
   and failed, free-form notes (tolerances, sizes) for the report, and
   any correctness problems beyond per-operation failures. *)
type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : (string * Json.t) list;
  problems : string list;
}

let metric_json m =
  Json.Obj
    ([ ("value", Json.Float m.m_value); ("unit", Json.Str m.m_unit); ("base", Json.Str (base_name m.m_base));
       ("samples", Json.Int m.m_samples); ("q1", Json.Float m.m_q1); ("q3", Json.Float m.m_q3) ]
    @ if m.m_samples > 1 then [ ("raw", Json.List (List.map (fun x -> Json.Float x) m.m_raw)) ] else [])

let finite m = Float.is_finite m.m_value && Float.is_finite m.m_q1 && Float.is_finite m.m_q3

(* Print the readable report, the detailed JSON report (also written
   under .perfbench/), and last the one-line result.  Returns whether
   the run was correct. *)
let report args ~expected o =
  let bad_values = List.filter (fun m -> not (finite m)) o.metrics in
  let missing =
    List.filter (fun n -> not (List.exists (fun m -> m.m_name = n) o.metrics)) expected
  in
  let problems =
    o.problems
    @ List.map (fun m -> Printf.sprintf "metric %s is not a finite number" m.m_name) bad_values
    @ List.map (fun n -> Printf.sprintf "metric %s was not produced" n) missing
  in
  let correct = problems = [] && o.failed = 0 && o.attempted >= 1 in
  Printf.printf "\n== %s  seed=%d  trace=%b  jobs=%d  nproc=%d  cpu=%s  ocaml=%s  flambda=%b\n"
    args.workload args.seed args.trace args.jobs (Domain.recommended_domain_count ()) (cpu_model ())
    Sys.ocaml_version Build_info.flambda;
  List.iter
    (fun m ->
      Printf.printf "  %-40s %14.6g %-9s %-9s n=%-4d q1=%.6g q3=%.6g\n" m.m_name m.m_value m.m_unit
        (base_name m.m_base) m.m_samples m.m_q1 m.m_q3)
    o.metrics;
  Printf.printf "  attempted=%d failed=%d correct=%b\n" o.attempted o.failed correct;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) problems;
  let ss = all_spans () in
  let detail =
    [ ("workload", Json.Str args.workload); ("host", host_json args);
      ("metrics", Json.Obj (List.map (fun m -> (m.m_name, metric_json m)) o.metrics));
      ("attempted", Json.Int o.attempted); ("failed", Json.Int o.failed);
      ("correct", Json.Bool correct); ("notes", Json.Obj o.notes);
      ("problems", Json.List (List.map (fun p -> Json.Str p) problems)) ]
  in
  (try
     if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
     let path =
       Printf.sprintf ".perfbench/%s-seed%d-trace%d.json" args.workload args.seed
         (if args.trace then 1 else 0)
     in
     let doc = Json.Obj (detail @ if ss = [] then [] else [ ("spans", spans_json ss) ]) in
     Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc))
   with Sys_error e -> Printf.printf "  (report not written: %s)\n" e);
  Printf.printf "report %s\n" (Json.to_string ~compact:true (Json.Obj detail));
  let result =
    Json.Obj
      [ ("correct", Json.Bool correct); ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ("metrics",
          Json.Obj
            (List.filter_map
               (fun m ->
                 if List.mem m.m_name expected && finite m then
                   Some (m.m_name, Json.Obj [ ("value", Json.Float m.m_value); ("unit", Json.Str m.m_unit) ])
                 else None)
               o.metrics)) ]
  in
  print_endline (Json.to_string ~compact:true result);
  correct

(* ------------------------------------------------------------------ loops *)

(* Run [f] at least [min] times and until [seconds] of wall time have
   passed; returns the results in order. *)
let repeat_for ?(min = 1) ~seconds f =
  let t_end = now () +. seconds in
  let rec go i acc =
    if i >= min && now () >= t_end then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

(* Host seconds taken by [f ()], with its result.  Unless [settle] is
   false, a full major collection runs first, untimed: the heap holds key material of up to
   a gigabyte, and whichever timed operation happened to trigger the
   next major slice would otherwise pay for marking all of it. *)
let timed ?(settle = true) f =
  if settle then Gc.full_major ();
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Set up [n] times with [f], each timed; every result but the last is
   handed to [drop] at once, so only one is alive at a time and the
   heap of the timed rounds holds one set-up's data.  Returns the
   set-up times in order and the last result. *)
let timed_setups n ~drop f =
  let rec go i times =
    let t, v = timed f in
    if i >= n then (List.rev (t :: times), v) else (drop v; go (i + 1) (t :: times))
  in
  go 1 []


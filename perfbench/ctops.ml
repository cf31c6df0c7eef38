(* Workload "ctops-n16": ciphertext operations at the paper's ring
   dimension N = 2^16 (the Params.large chain, 13 limbs) with an
   Eval.context on a pool of the host's cores.  A closed loop of
   Eval.mul (keyswitch + rescale) and Hoisting.rotate_many over
   rotations [1;2;3;4]; every output is decrypted and compared with
   the cleartext result.  This is the only workload where the rns
   kernels fan out across domains. *)

open Bench
module Params = Cinnamon_ckks.Params
module Keys = Cinnamon_ckks.Keys
module Eval = Cinnamon_ckks.Eval
module Encrypt = Cinnamon_ckks.Encrypt
module Hoisting = Cinnamon_ckks.Hoisting
module Ciphertext = Cinnamon_ckks.Ciphertext
module Rns_poly = Cinnamon_rns.Rns_poly
module Basis = Cinnamon_rns.Basis
module Limb_buf = Cinnamon_rns.Limb_buf
module Rng = Cinnamon_util.Rng
module Pool = Cinnamon_exec.Pool

let rotations = [ 1; 2; 3; 4 ]

(* Largest decrypt error an operation may show and still count as
   correct: the bound the nn decrypt tests use.  Measured errors at
   this chain are about 1e-3 after a multiply and 5e-3 after a
   rotation (reported as the ckks.max_err metrics). *)
let tolerance = 5e-2

type env = {
  params : Params.t;
  pool : Pool.t;
  sk : Keys.secret_key;
  ek : Keys.eval_key;
  ctx : Eval.context;
  a : float array;
  b : float array;
  ca : Ciphertext.t;
  cb : Ciphertext.t;
}

let setup ~jobs ~seed () =
  let params = span "ckks.params" (fun () -> Params.make ~log_n:16 ~levels:12 ~dnum:3 ~slots:1024 ()) in
  let pool = Pool.create ~jobs () in
  let rng = Rng.create ~seed in
  let sk = span "ckks.keygen" (fun () -> Keys.gen_secret_key params rng) in
  let pk = span "ckks.keygen" (fun () -> Keys.gen_public_key params sk rng) in
  let ek =
    span "ckks.keygen" (fun () -> Keys.provision params ~rotations ~conjugation:false sk rng)
  in
  let ctx = Eval.context ~pool params ek in
  let slots = params.Params.slots in
  let vec () = Array.init slots (fun _ -> (2.0 *. Rng.float rng) -. 1.0) in
  let a = vec () and b = vec () in
  let ca = span "ckks.encrypt" (fun () -> Encrypt.encrypt_real params pk a rng) in
  let cb = span "ckks.encrypt" (fun () -> Encrypt.encrypt_real params pk b rng) in
  { params; pool; sk; ek; ctx; a; b; ca; cb }

let err e ~expected ct =
  let got = Encrypt.decrypt_real e.params e.sk ct in
  Cinnamon_util.Stats.max_abs_error ~expected ~actual:(Array.sub got 0 (Array.length expected))

type round = { mul_s : float; rot_s : float; errs : (string * float) list }

(* Outputs are deterministic: every round must reproduce the first
   round's ciphertexts bit for bit, and those were decrypted and
   compared with the cleartext results. *)
let round e ~reference i =
  let (mul_s, prod), (rot_s, rots) =
    span ~op:(i + 1) "bench.round" (fun () ->
        let m = timed (fun () -> span "ckks.mul" (fun () -> Eval.mul e.ctx e.ca e.cb)) in
        let r =
          timed (fun () ->
              span "ckks.rotate_many" (fun () ->
                  Hoisting.rotate_many ~pool:e.pool e.params e.ek e.ca rotations))
        in
        (m, r))
  in
  let slots = Array.length e.a in
  let outputs =
    ("mul", prod, fun () -> Array.map2 ( *. ) e.a e.b)
    :: List.map
         (fun (r, ct) -> (Printf.sprintf "rotate %d" r, ct, fun () -> Array.init slots (fun i -> e.a.((i + r) mod slots))))
         rots
  in
  let errs =
    List.map
      (fun (name, (ct : Ciphertext.t), expected) ->
        match List.assoc_opt name !reference with
        | Some ((first : Ciphertext.t), err_first) ->
          let same = Rns_poly.equal ct.c0 first.c0 && Rns_poly.equal ct.c1 first.c1 in
          (name, if same then err_first else infinity)
        | None ->
          let x = err e ~expected:(expected ()) ct in
          reference := (name, (ct, x)) :: !reference;
          (name, x))
      outputs
  in
  { mul_s; rot_s; errs }

(* The per-layer metrics a traced run produces besides the common ones. *)
let per_layer =
  [ "setup.first_s"; "mul_relin_ms"; "rotate4_hoisted_ms"; "ckks.max_err.mul"; "ckks.max_err.rotate";
    "rns.ntt_forward_us"; "rns.base_conv_us"; "rns.pointwise_mul_us"; "ckks.keyswitch_ms";
    "ckks.rescale_ms"; "host.copy_gbps"; "ckks.keyswitch_bw_frac"; "pool.jobs" ]

(* Median host seconds of [reps] calls of [f] (after one warm-up). *)
let time_call ?(reps = 10) name f =
  ignore (f ());
  median (List.init reps (fun _ -> fst (timed ~settle:false (fun () -> span name f))))

(* Host copy bandwidth over a source and a destination of 2x the
   last-level cache each: bytes read plus bytes written per second,
   best of three copies.  Returns (GB/s, LLC bytes, buffer bytes). *)
let copy_gbps () =
  let llc = llc_bytes () in
  let n = 2 * llc / 8 in
  let src = Limb_buf.init n (fun i -> i) and dst = Limb_buf.create n in
  let best =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ -> fst (timed (fun () -> Limb_buf.blit ~src ~dst))))
  in
  (2.0 *. Float.of_int (8 * n) /. best /. 1e9, llc, 8 * n)

(* Calls into each kernel layer's public functions, on this run's
   parameters and pool; [copy] is the host copy bandwidth. *)
let kernel_metrics e ~copy =
  let p = e.params in
  let n = p.Params.n in
  let rng = Rng.create ~seed:17 in
  let q_basis = p.Params.q_basis in
  let tq = Basis.size q_basis in
  let x = Rns_poly.random ~n ~basis:q_basis ~domain:Rns_poly.Eval rng in
  let y = Rns_poly.random ~n ~basis:q_basis ~domain:Rns_poly.Eval rng in
  let z = Rns_poly.zero ~n ~basis:q_basis in
  let plan = Cinnamon_rns.Ntt.plan ~q:(Basis.value q_basis 0) ~n in
  let limb = Rns_poly.copy_limb x 0 and out = Limb_buf.create n in
  let xc = Rns_poly.to_coeff ~pool:e.pool x in
  let ntt_s =
    time_call ~reps:50 "rns.ntt_forward" (fun () ->
        Cinnamon_rns.Ntt.forward_into ~pool:e.pool plan ~src:limb ~dst:out)
  in
  let bc_s =
    time_call "rns.base_conv" (fun () -> Cinnamon_rns.Base_conv.convert ~pool:e.pool xc ~dst:p.Params.p_basis)
  in
  let mul_s = time_call ~reps:20 "rns.pointwise_mul" (fun () -> Rns_poly.mul_into ~dst:z x y) in
  let ks_s =
    time_call ~reps:5 "ckks.keyswitch" (fun () ->
        Cinnamon_ckks.Keyswitch_fused.keyswitch ~pool:e.pool p e.ek.Keys.relin x)
  in
  let prod = Eval.mul e.ctx e.ca e.cb in
  let rescale_s = time_call "ckks.rescale" (fun () -> Eval.rescale prod) in
  (* streamed-words model of the fused keyswitch dataflow: decompose,
     conversion columns, key MAC streams, fused mod-down *)
  let alpha = p.Params.alpha and dnum = p.Params.dnum in
  let t = tq + alpha in
  let words =
    (2 * tq) + (((dnum * t) - tq) * (alpha + 1)) + (t * ((3 * dnum) + 2))
    + (2 * ((2 * alpha) + (tq * (alpha + 3))))
  in
  let ks_gbps = Float.of_int (8 * n * words) /. ks_s /. 1e9 in
  ( [ single "rns.ntt_forward_us" "us" Host (1e6 *. ntt_s);
      single "rns.base_conv_us" "us" Host (1e6 *. bc_s);
      single "rns.pointwise_mul_us" "us" Host (1e6 *. mul_s);
      single "ckks.keyswitch_ms" "ms" Host (1e3 *. ks_s);
      single "ckks.rescale_ms" "ms" Host (1e3 *. rescale_s);
      single "host.copy_gbps" "GB/s" Host copy;
      single "ckks.keyswitch_bw_frac" "frac" Host (ks_gbps /. copy);
      single "pool.jobs" "count" Count (Float.of_int (Pool.jobs e.pool)) ],
    [ ("keyswitch_computed_gbps", Json.Float ks_gbps);
      ("keyswitch_bytes_model", Json.Str "computed: streamed words of the fused dataflow x 8 B") ] )

let run (args : args) =
  (* measured first, while the heap is small: the two copy buffers
     alone take four times the last-level cache *)
  let copy = if args.trace then Some (copy_gbps ()) else None in
  Gc.full_major ();
  tracing := args.trace;
  let setup_s, e =
    timed_setups 3 ~drop:(fun e -> Pool.shutdown e.pool) (setup ~jobs:args.jobs ~seed:args.seed)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown e.pool) @@ fun () ->
  (* the first rounds fill the lazily built keyswitch plans and Galois
     permutations and settle the heap; they are not timed *)
  tracing := false;
  let reference = ref [] in
  ignore (round e ~reference (-1));
  ignore (round e ~reference (-1));
  (* traced runs alternate an untraced and a traced round *)
  let rounds =
    repeat_for ~min:(if args.trace then 4 else 3) ~seconds:args.seconds (fun i ->
        let traced = args.trace && i mod 2 = 1 in
        tracing := traced;
        let r = round e ~reference i in
        tracing := false;
        (traced, r))
  in
  let errs = List.concat_map (fun (_, r) -> r.errs) rounds in
  let failures = List.filter (fun (_, x) -> not (x < tolerance)) errs in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) rounds in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) rounds in
  let ms f rs = List.map (fun r -> 1e3 *. f r) rs in
  let round_s r = r.mul_s +. r.rot_s in
  let common =
    [ of_samples "setup_s" "s" Host setup_s;
      single "peak_rss_mb" "MB" Host (peak_rss_mb ());
      of_samples "round_ms" "ms" Host (ms round_s untraced) ]
  in
  let per_layer, kernel_notes =
    if not args.trace then ([], [])
    else begin
      let round_ss = List.filter (fun s -> s.op > 0) (all_spans ()) in
      let gbps, llc, buf = Option.get copy in
      let km, notes = kernel_metrics e ~copy:gbps in
      let notes =
        [ ("llc_bytes", Json.Int llc); ("copy_buffer_bytes", Json.Int buf); ("copy_buffers", Json.Int 2) ]
        @ notes
      in
      ( Trace_report.common round_ss ~traced_round_s:(List.map round_s traced)
          ~untraced_round_s:(List.map round_s untraced)
        @ [ single "setup.first_s" "s" Host (List.hd setup_s);
            of_samples "mul_relin_ms" "ms" Host (ms (fun r -> r.mul_s) untraced);
            of_samples "rotate4_hoisted_ms" "ms" Host (ms (fun r -> r.rot_s) untraced);
            single "ckks.max_err.mul" "abs" Count
              (List.fold_left (fun a (k, x) -> if k = "mul" then Float.max a x else a) 0.0 errs);
            single "ckks.max_err.rotate" "abs" Count
              (List.fold_left (fun a (k, x) -> if k <> "mul" then Float.max a x else a) 0.0 errs) ]
        @ km,
        notes )
    end
  in
  {
    metrics = common @ per_layer;
    attempted = List.length errs;
    failed = List.length failures;
    notes =
      [ ("tolerance", Json.Float tolerance); ("log_n", Json.Int 16);
        ("limbs", Json.Int (Basis.size e.params.Params.q_basis)); ("pool_jobs", Json.Int (Pool.jobs e.pool));
        ("rounds", Json.Int (List.length rounds));
        ("mul_relin_ms", Json.Float (median (ms (fun r -> r.mul_s) untraced)));
        ("rotate4_hoisted_ms", Json.Float (median (ms (fun r -> r.rot_s) untraced))) ]
      @ kernel_notes;
    problems =
      List.map
        (fun (k, x) ->
          if Float.is_finite x then Printf.sprintf "%s: decrypt error %.3g >= %.3g" k x tolerance
          else Printf.sprintf "%s: output differs from the first round's" k)
        failures;
  }

(* paper-kernels: the paper's own kernels in a seed-shuffled round-robin on
   one thread — Fig 1 two-tone HB (8x8), Fig 4 MMFT mixer, Fig 6 IES3 on
   the 32x32 plate, Sec 5 PVL at q = 8 with a 40-frequency sweep, Sec 3
   van der Pol orbit plus phase noise, and the lowpass mask optimization
   on a fresh cache. Each solve must pass the tolerance its EXP verdict
   uses; IES3 is checked against a dense MoM reference built in setup. *)

open Rfkit
open Rfkit_circuits

type setup = {
  modulator : Modulator.params * Circuit.Mna.t;
  mixer : Mixer.params * Circuit.Mna.t;
  plate : Em.Mom.problem;
  dense_cap : float;  (** dense MoM self-capacitance of the plate *)
  line : Rom.Descriptor.t;
  vdp : Noise.Oscillators.bench;
}

let plate_n ~tiny = if tiny then 8 else 32

let setup ~tiny =
  let n = plate_n ~tiny in
  let mesh =
    Em.Geo3.mesh_plate ~name:"plate" ~origin:(Em.Geo3.v3 0.0 0.0 0.0)
      ~u:(Em.Geo3.v3 1e-3 0.0 0.0) ~v:(Em.Geo3.v3 0.0 1e-3 0.0) ~nu:n ~nv:n
  in
  let plate = Em.Mom.make Em.Kernel.free_space [| mesh |] in
  let dense = Em.Mom.solve_dense plate in
  if Lint.has_errors (Lint.lint_string Opt_deck.text) then Pb.fail "optimizer deck has lint errors";
  let mp = Modulator.paper_params and xp = Mixer.paper_params in
  {
    modulator = (mp, Modulator.build mp);
    mixer = (xp, Mixer.build xp);
    plate;
    dense_cap = Em.Mom.self_capacitance dense 0;
    line = Rom.Descriptor.rc_line ~sections:60 ~r_total:6e3 ~c_total:6e-12;
    vdp = Noise.Oscillators.van_der_pol ();
  }

(* ---------------------------------------------------------- kernels -- *)

type solved = { ok : bool; newton : int; krylov : int; extra : Pb.metric list }

let sp name layer f = Span.record layer name f

let hb2 s =
  let p, c = s.modulator in
  let res =
    sp "rf.hb2" "rf" (fun () ->
        Rf.Hb2.solve ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 } c
          ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)
  in
  let node = Modulator.output_node in
  let carrier = Rf.Hb2.mix_amplitude res node ~k1:(-1) ~k2:1 in
  let dbc k1 k2 = Rf.Spectrum.dbc ~carrier (Rf.Hb2.mix_amplitude res node ~k1 ~k2) in
  let image = dbc 1 1 and leak = dbc 0 1 in
  {
    ok = Float.abs (image +. 35.0) < 1.5 && Float.abs (leak +. 78.0) < 1.5;
    newton = res.Rf.Hb2.newton_iters;
    krylov = res.Rf.Hb2.gmres_iters_total;
    extra =
      [
        Pb.m "rf.hb2_newton_iters" "count" (float_of_int res.Rf.Hb2.newton_iters);
        Pb.m "rf.hb2_gmres_iters" "count" (float_of_int res.Rf.Hb2.gmres_iters_total);
      ];
  }

let mmft s =
  let p, c = s.mixer in
  let res =
    sp "rf.mmft" "rf" (fun () ->
        Rf.Mmft.solve
          ~options:{ Rf.Mmft.default_options with slow_harmonics = 3; steps2 = 50 }
          c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo)
  in
  let a1 = Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:1 ~fast:1 *. 1e3 in
  let a3 = Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:3 ~fast:1 *. 1e3 in
  {
    ok = Float.abs (a1 -. 60.0) < 6.0 && a3 > 0.7 && a3 < 1.5;
    newton = res.Rf.Mmft.newton_iters;
    krylov = 0;
    extra = [ Pb.m "rf.mmft_newton_iters" "count" (float_of_int res.Rf.Mmft.newton_iters) ];
  }

let ies3 s =
  let t = sp "em.ies3_build" "em" (fun () -> Em.Ies3.build_mom s.plate) in
  let cap =
    sp "em.ies3_solve" "em" (fun () ->
        Em.Mom.solve_operator s.plate ~matvec:(Em.Ies3.matvec t) ~precond_diag:(Em.Ies3.diagonal t))
  in
  let c = La.Mat.get cap 0 0 in
  let st = Em.Ies3.stats t in
  let x = Array.make st.Em.Ies3.n 1.0 in
  let _, mv =
    Pb.timed (fun () ->
        sp "em.ies3_matvec" "em" (fun () ->
            for _ = 1 to 5 do
              ignore (Em.Ies3.matvec t x)
            done))
  in
  {
    ok = Float.abs (c -. s.dense_cap) < 0.01 *. Float.abs s.dense_cap;
    newton = 0;
    krylov = 0;
    extra =
      [
        Pb.m "em.ies3_matvec_ms" "ms" (mv /. 5.0 *. 1e3);
        Pb.m "em.ies3_memory_mb" "MB" (float_of_int st.Em.Ies3.memory_bytes /. 1048576.0);
        Pb.m "em.ies3_compression_ratio" "ratio" st.Em.Ies3.compression_ratio;
      ];
  }

let pvl_freqs = Array.init 40 (fun i -> 1e6 *. (10.0 ** (float_of_int i /. 13.0)))

let pvl s =
  let rom = sp "rom.pvl_reduce" "rom" (fun () -> Rom.Pvl.reduce s.line ~s0:0.0 ~q:8) in
  let at f = La.Cx.im (2.0 *. Float.pi *. f) in
  let approx, t_rom =
    Pb.timed (fun () ->
        sp "rom.rom_transfer" "rom" (fun () -> Array.map (fun f -> Rom.Pvl.transfer rom (at f)) pvl_freqs))
  in
  let exact, t_exact =
    Pb.timed (fun () ->
        sp "rom.exact_transfer" "rom" (fun () ->
            Array.map (fun f -> Rom.Descriptor.transfer s.line (at f)) pvl_freqs))
  in
  (* EXP-S5: PVL matches at least 2q - 1 moments and its step response
     settles at H(0) within 1e-3; the band sweep stays within 1% *)
  let err =
    Array.fold_left Float.max 0.0
      (Array.mapi
         (fun i h -> La.Cx.abs (La.Cx.( -: ) h approx.(i)) /. Float.max 1e-30 (La.Cx.abs h))
         exact)
  in
  let exact_m = Rom.Descriptor.moments s.line ~s0:0.0 ~k:16 and rom_m = Rom.Pvl.moments rom 16 in
  let rec matched k =
    if k < 16 && Float.abs (exact_m.(k) -. rom_m.(k)) < 1e-6 *. Float.abs exact_m.(k) then
      matched (k + 1)
    else k
  in
  let step = Rom.Realize.step_response_final rom and dc = Rom.Realize.dc_gain rom in
  let n = float_of_int (Array.length pvl_freqs) in
  {
    ok = matched 0 >= 15 && Float.abs (step -. dc) < 1e-3 && err < 1e-2;
    newton = 0;
    krylov = 0;
    extra =
      [
        Pb.m "rom.rom_transfer_us" "us" (t_rom /. n *. 1e6);
        Pb.m "rom.exact_transfer_us" "us" (t_exact /. n *. 1e6);
      ];
  }

let pnoise s =
  let orb = sp "noise.orbit" "noise" (fun () -> Noise.Oscillators.solve ~steps_per_period:300 s.vdp) in
  let res = sp "noise.ppv" "noise" (fun () -> Noise.Phase_noise.analyze orb) in
  (* EXP-S3: c against the high-Q LC formula within 5% *)
  let f0 = Noise.Phase_noise.oscillator_frequency res in
  let r = 2e3 and cap = 1e-9 in
  let amp = Rf.Grid.amplitude (Rf.Shooting.waveform orb "tank") 1 in
  let s_noise = 4.0 *. Circuit.Device.boltzmann *. Circuit.Device.room_temp /. r in
  let w0 = 2.0 *. Float.pi *. f0 in
  let c_analytic = s_noise /. (4.0 *. amp *. amp *. cap *. cap *. w0 *. w0) in
  { ok = Float.abs ((res.Noise.Phase_noise.c /. c_analytic) -. 1.0) < 0.05; newton = 0; krylov = 0; extra = [] }

let optimize _ =
  let dir = Pb.fresh "opt-cache" in
  let cache = Batch.Cache.create ~dir () in
  let telemetry = Batch.Telemetry.create ~progress:false ~total:0 () in
  let out =
    sp "opt.loop" "opt" (fun () ->
        Opt.Loop.run Opt_deck.config ~cache ~telemetry ~spec:Opt_deck.spec ~options:Opt_deck.options
          ~analysis:Opt_deck.analysis Opt_deck.vars)
  in
  Batch.Telemetry.close telemetry;
  let st = Batch.Cache.stats cache in
  Pb.rm_rf dir;
  let met = match out.Opt.Loop.o_best with Some e -> e.Opt.Loop.e_score.Opt.Spec.met | None -> false in
  {
    ok = met;
    newton = 0;
    krylov = 0;
    extra =
      [
        Pb.m "opt.evals" "count" (float_of_int out.Opt.Loop.o_evals);
        Pb.m "opt.cache_hit_ratio" "ratio" (Pb.ratio st.Batch.Cache.hits (st.Batch.Cache.hits + st.Batch.Cache.misses));
      ];
  }

let solve s = function
  | Gen.Hb2_fig1 -> hb2 s
  | Gen.Mmft_fig4 -> mmft s
  | Gen.Ies3_fig6 -> ies3 s
  | Gen.Pvl_sec5 -> pvl s
  | Gen.Pnoise_sec3 -> pnoise s
  | Gen.Opt_lowpass -> optimize s

(* ------------------------------------------------------------ rounds -- *)

type sample = { kernel : Gen.kernel; wall : float; result : solved }

let run_round s ~seed ~round =
  List.map
    (fun k ->
      let result, wall = Pb.timed (fun () -> solve s k) in
      if not result.ok then prerr_endline ("perfbench: kernel failed its check: " ^ Gen.kernel_name k);
      { kernel = k; wall; result })
    (Gen.kernel_round ~seed ~round)

let kernel_medians samples =
  List.map
    (fun k ->
      ( k,
        Pb.median
          (List.filter_map (fun x -> if x.kernel = k then Some (x.wall *. 1e3) else None) samples) ))
    Gen.all_kernels

let run ~seed ~seconds ~setup_reps ~tiny =
  let s, setup_s = Pb.setup_median ~reps:setup_reps (fun () -> setup ~tiny) in
  let t0 = Pb.now () in
  let rounds = ref [] in
  while Pb.now () -. t0 < seconds || !rounds = [] do
    let r, wall = Pb.timed (fun () -> run_round s ~seed ~round:(List.length !rounds)) in
    rounds := (r, wall) :: !rounds
  done;
  let elapsed = Pb.now () -. t0 in
  let samples = List.concat_map fst !rounds in
  let ok = List.length (List.filter (fun x -> x.result.ok) samples) in
  let medians = kernel_medians samples in
  {
    Pb.attempted = List.length samples;
    failed = List.length samples - ok;
    metrics =
      [
        Pb.m "setup_s" "s" setup_s;
        Pb.m "jobs_per_s" "1/s" (float_of_int ok /. elapsed);
        Pb.m "job_p50_ms" "ms" (Pb.median (List.map snd medians));
        Pb.m "sweep_p50_ms" "ms" (Pb.median (List.map (fun (_, w) -> w *. 1e3) !rounds));
        Pb.m "peak_rss_mb" "MB" (Pb.peak_rss_mb "self");
      ];
    detail =
      List.map (fun (k, v) -> Pb.m (Gen.kernel_name k ^ "_ms") "ms" v) medians
      @ [
          Pb.m "rounds" "count" (float_of_int (List.length !rounds));
          Pb.m "failed_frac" "ratio" (Pb.ratio (List.length samples - ok) (List.length samples));
        ];
  }

let run_traced ~seed ~seconds ~tiny =
  let s = setup ~tiny in
  (* the fixed work: the rounds that fit a quarter of the window, untraced *)
  let t0 = Pb.now () in
  let untraced = ref [] in
  while Pb.now () -. t0 < seconds /. 4.0 || !untraced = [] do
    untraced := Pb.timed (fun () -> run_round s ~seed ~round:(List.length !untraced)) :: !untraced
  done;
  let n = List.length !untraced in
  let wall_u = List.fold_left (fun a (_, w) -> a +. w) 0.0 !untraced in
  Span.enable ();
  let before = Probes.lu_counts () in
  let traced =
    List.init n (fun round ->
        Pb.timed (fun () -> Span.record ~id:(string_of_int round) "perfbench" "round" (fun () -> run_round s ~seed ~round)))
  in
  let wall_t = List.fold_left (fun a (_, w) -> a +. w) 0.0 traced in
  let traced_samples = List.concat_map fst traced in
  let lu = Probes.lu_metrics ~before ~ops:(List.length traced_samples) in
  let samples = traced_samples @ List.concat_map fst !untraced in
  let failed = List.length (List.filter (fun x -> not x.result.ok) samples) in
  (* per-kernel extras: the median of each over the traced solves *)
  let extra = List.concat_map (fun x -> x.result.extra) traced_samples in
  let named name = List.filter (fun (x : Pb.metric) -> x.m_name = name) extra in
  let extras =
    List.sort_uniq compare (List.map (fun (x : Pb.metric) -> x.m_name) extra)
    |> List.map (fun name ->
           let xs = named name in
           Pb.m name (List.hd xs).m_unit (Pb.median (List.map (fun (x : Pb.metric) -> x.m_value) xs)))
  in
  let evals = List.fold_left (fun a (x : Pb.metric) -> a +. x.m_value) 0.0 (named "opt.evals") in
  let span_ms name = Pb.median (List.map (fun d -> d *. 1e3) (Span.durations name)) in
  let inputs =
    List.map
      (fun job -> { Probes.deck = Opt_deck.text; node = "out"; ordering = Rfkit_struct.Order.Natural; job })
      Opt_deck.probe_jobs
  in
  let probes = Probes.run ~inputs ~big:(snd s.modulator) in
  let per_solve f = float_of_int (List.fold_left (fun a x -> a + f x.result) 0 traced_samples) /. float_of_int (List.length traced_samples) in
  {
    Pb.attempted = List.length samples;
    failed;
    metrics =
      [ Pb.m "trace_overhead_frac" "ratio" ((wall_t -. wall_u) /. wall_u) ]
      @ probes @ lu
      @ [
          Pb.m "solve.newton_iters" "count" (per_solve (fun r -> r.newton));
          Pb.m "solve.krylov_iters" "count" (per_solve (fun r -> r.krylov));
        ];
    detail =
      extras
      @ [
          Pb.m "em.ies3_build_ms" "ms" (span_ms "em.ies3_build");
          Pb.m "em.ies3_solve_ms" "ms" (span_ms "em.ies3_solve");
          Pb.m "rom.pvl_reduce_ms" "ms" (span_ms "rom.pvl_reduce");
          Pb.m "noise.orbit_ms" "ms" (span_ms "noise.orbit");
          Pb.m "noise.ppv_ms" "ms" (span_ms "noise.ppv");
          Pb.m "opt.eval_ms" "ms" (Span.total "opt.loop" *. 1e3 /. Float.max 1.0 evals);
          Pb.m "traced_rounds" "count" (float_of_int n);
        ];
  }

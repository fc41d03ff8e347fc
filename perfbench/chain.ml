(* chain-sweep: the compute-bound workload.

   Closed loop, one sweep at a time: each seeded RC-diode ladder sweep runs
   through [Batch.Runner.run] on [nproc] domains against a fresh cold cache
   with the journal off. dc/ac/tran jobs run on 200-400-stage decks; hb jobs
   run through the default PSS cascade on 12-25-stage decks. Every sweep's
   report must be identical across its repeats and to a domains-1 run.

   The traced pass re-runs each job's steps at domains = 1 in
   [Runner.execute]'s order (parse -> build -> ordering -> engine ->
   certify -> key -> cache -> Report.line) with a span around each call;
   its report must equal the untraced ones. *)

open Rfkit
open Rfkit_circuit
module Sup = Rfkit_solve.Supervisor
module Cascade = Rfkit_solve.Cascade
module Certify = Rfkit_solve.Certify
module Json = Batch.Json

let ordering = Rfkit_struct.Order.Btf_amd

let config ~domains (s : Gen.sweep) =
  {
    Batch.Runner.deck_text = s.deck;
    node = s.node;
    domains;
    budget = None;
    tol_scale = 1.0;
    ordering;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

(* generate and lint the sweeps; a generated deck with lint errors is a
   benchmark bug, never a measurement *)
let setup ~seed ~tiny =
  let sweeps = Gen.chain_sweeps ~seed ~tiny in
  List.iter
    (fun (s : Gen.sweep) ->
      let diags = Lint.lint_string s.deck in
      if Lint.has_errors diags then
        Pb.fail "generated deck %s has lint errors:\n%s" s.name
          (fst (Lint.report diags)))
    sweeps;
  sweeps

let report_lines results =
  Array.to_list
    (Array.map
       (function Some r -> Batch.Report.line r | None -> "<missing>")
       results)

(* One sweep through the runner against a fresh cold cache. *)
let run_sweep ~domains (s : Gen.sweep) =
  let dir = Pb.fresh "cache" in
  let cache = Batch.Cache.create ~dir () in
  let telemetry = Batch.Telemetry.create ~progress:false ~total:0 () in
  let outcome, wall =
    Pb.timed (fun () -> Batch.Runner.run (config ~domains s) ~cache ~telemetry s.jobs)
  in
  Batch.Telemetry.close telemetry;
  Pb.rm_rf dir;
  (outcome.Batch.Runner.results, wall)

let ok_status (r : Batch.Runner.job_result) = r.status = Batch.Runner.Ok

(* differing lines between two reports of the same sweep, each shown on
   stderr *)
let mismatches a b =
  if List.length a <> List.length b then max (List.length a) (List.length b)
  else
    List.fold_left2
      (fun n x y ->
        if x = y then n
        else begin
          Printf.eprintf "perfbench: report lines differ:\n  %s\n  %s\n" x y;
          n + 1
        end)
      0 a b

(* ------------------------------------------------------- untraced -- *)

let run ~seed ~seconds ~setup_reps ~tiny =
  let sweeps, setup_s = Pb.setup_median ~reps:setup_reps (fun () -> Array.of_list (setup ~seed ~tiny)) in
  let domains = Pb.nproc () in
  let first_report = Array.make (Array.length sweeps) None in
  let job_walls = ref [] and sweep_walls = ref [] in
  let attempted = ref 0 and failed = ref 0 and ok = ref 0 in
  let t0 = Pb.now () in
  let i = ref 0 in
  while Pb.now () -. t0 < seconds do
    let k = !i mod Array.length sweeps in
    incr i;
    let results, wall = run_sweep ~domains sweeps.(k) in
    sweep_walls := wall :: !sweep_walls;
    Array.iter
      (function
        | Some (r : Batch.Runner.job_result) ->
            incr attempted;
            job_walls := r.wall :: !job_walls;
            if ok_status r then incr ok else incr failed
        | None ->
            incr attempted;
            incr failed)
      results;
    let lines = report_lines results in
    match first_report.(k) with
    | None -> first_report.(k) <- Some lines
    | Some first -> failed := !failed + mismatches first lines
  done;
  let elapsed = Pb.now () -. t0 in
  let rss = Pb.peak_rss_mb "self" in
  (* after the window: every sweep run must equal its domains-1 report *)
  Array.iteri
    (fun k first ->
      match first with
      | None -> ()
      | Some lines ->
          let reference, _ = run_sweep ~domains:1 sweeps.(k) in
          failed := !failed + mismatches lines (report_lines reference))
    first_report;
  let ms = List.map (fun x -> x *. 1e3) in
  let jobs = List.length !job_walls in
  {
    Pb.attempted = !attempted;
    failed = !failed;
    metrics =
      [
        Pb.m "setup_s" "s" setup_s;
        Pb.m "jobs_per_s" "1/s" (float_of_int !ok /. elapsed);
        Pb.m "job_p50_ms" "ms" (Pb.median (ms !job_walls));
        Pb.m "sweep_p50_ms" "ms" (Pb.median (ms !sweep_walls));
        Pb.m "peak_rss_mb" "MB" rss;
      ];
    detail =
      (if jobs >= 100 then [ Pb.m "job_p90_ms" "ms" (Pb.quantile 0.9 (ms !job_walls)) ]
       else [])
      @ [
          Pb.m "jobs" "count" (float_of_int jobs);
          Pb.m "sweeps" "count" (float_of_int (List.length !sweep_walls));
          Pb.m "domains" "count" (float_of_int domains);
          Pb.m "failed_frac" "ratio" (Pb.ratio !failed !attempted);
        ];
  }

(* -------------------------------------------------------- traced -- *)

(* Runner.execute's payloads, rebuilt around spans. *)
let payload_ok ~status ~analysis ~engine ~certificate ~newton ~krylov ~data =
  Json.obj
    [
      ("status", Json.str (match status with Batch.Runner.Suspect -> "suspect" | _ -> "ok"));
      ("analysis", Json.str (Batch.Spec.analysis_name analysis));
      ("engine", Json.str engine);
      ("certificate", Json.str certificate);
      ("newton", Json.int newton);
      ("krylov", Json.int krylov);
      ("data", data);
    ]

let payload_failed ~analysis ~cause =
  Json.obj
    [
      ("status", Json.str "failed");
      ("analysis", Json.str (Batch.Spec.analysis_name analysis));
      ("cause", Json.str cause);
    ]

let verdict cert =
  if Certify.is_certified cert then ("certified", Batch.Runner.Ok)
  else ("suspect", Batch.Runner.Suspect)

let dc_data c x =
  let nl = Mna.netlist c in
  let nodes = Netlist.node_count nl in
  let voltages =
    List.init nodes (fun i -> ("v(" ^ Netlist.node_name nl i ^ ")", Json.num x.(i)))
  in
  let currents =
    List.init (Mna.size c - nodes) (fun k ->
        (Mna.unknown_label c (nodes + k), Json.num x.(nodes + k)))
  in
  let volt n = if n < 0 then 0.0 else x.(n) in
  let power =
    List.fold_left
      (fun acc d ->
        match d with
        | Device.Vsource { name; p; n; _ } -> (
            match Mna.branch_index c name with
            | Some b -> acc +. Float.abs ((volt p -. volt n) *. x.(b))
            | None -> acc)
        | _ -> acc)
      0.0 (Netlist.devices nl)
  in
  Json.obj (voltages @ currents @ [ ("power", Json.num power) ])

type traced_job = {
  result : Batch.Runner.job_result;
  hb_first_stage : bool option;  (** hb jobs: won by the cascade's first stage *)
}

let traced_job (s : Gen.sweep) ~cache (job : Batch.Expand.job) =
  let id = Printf.sprintf "%s#%d" s.name job.id in
  let sp layer name f = Span.record ~id layer name f in
  let t0 = Pb.now () in
  let nl, _ = sp "circuit" "circuit.parse" (fun () -> Deck.parse_string ~overrides:job.params s.deck) in
  let c = sp "circuit" "circuit.mna_build" (fun () -> Mna.build nl) in
  sp "struct" "struct.ordering" (fun () ->
      Mna.set_ordering c ordering;
      ignore (Mna.ordering_perm c));
  let analysis = job.analysis in
  let certify f = sp "solve" "solve.certify" f in
  let fail_sup (f : Sup.failure) =
    (Batch.Runner.Failed, payload_failed ~analysis ~cause:(Sup.cause_to_string f.Sup.cause), Cascade.failure_iterations f, 0, None)
  in
  let status, payload, newton, krylov, first_stage =
    match analysis with
    | Batch.Spec.Dc -> (
        match sp "circuit" "circuit.dc" (fun () -> Dc.solve_outcome c) with
        | Sup.Converged (x, rep) ->
            let certificate, status = verdict (certify (fun () -> Dc.certify ~tol_scale:1.0 c x)) in
            let newton = rep.Sup.total_iterations and krylov = rep.Sup.stats.Sup.krylov_iterations in
            ( status,
              payload_ok ~status ~analysis ~engine:"dc" ~certificate ~newton ~krylov ~data:(dc_data c x),
              newton, krylov, None )
        | Sup.Failed f -> fail_sup f)
    | Batch.Spec.Ac { f_start; f_stop; points_per_decade } -> (
        let src =
          List.find (function Device.Vsource _ -> true | _ -> false) (Netlist.devices nl)
        in
        let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade in
        match sp "circuit" "circuit.ac" (fun () -> Ac.sweep_outcome c ~source:(Device.name src) ~freqs) with
        | Sup.Converged (res, _) ->
            let h = Ac.transfer c res s.node in
            let data =
              Json.obj
                [
                  ("freq", Json.arr (Array.to_list (Array.map Json.num freqs)));
                  ("mag", Json.arr (Array.to_list (Array.map (fun z -> Json.num (La.Cx.abs z)) h)));
                ]
            in
            ( Batch.Runner.Ok,
              payload_ok ~status:Batch.Runner.Ok ~analysis ~engine:"ac" ~certificate:"none" ~newton:0 ~krylov:0 ~data,
              0, 0, None )
        | Sup.Failed f -> fail_sup f)
    | Batch.Spec.Tran { t_stop; dt } -> (
        match sp "circuit" "circuit.tran" (fun () -> Tran.run_outcome c ~t_stop ~dt) with
        | Sup.Converged (res, rep) ->
            let certificate, status = verdict (certify (fun () -> Tran.certify ~tol_scale:1.0 c res)) in
            let trace = Tran.voltage_trace c res s.node in
            let n = Array.length trace in
            let data =
              Json.obj
                [
                  ("t_end", Json.num res.Tran.times.(n - 1));
                  ("v_end", Json.num trace.(n - 1));
                  ("v_min", Json.num (Array.fold_left min trace.(0) trace));
                  ("v_max", Json.num (Array.fold_left max trace.(0) trace));
                ]
            in
            let newton = rep.Sup.total_iterations and krylov = rep.Sup.stats.Sup.krylov_iterations in
            (status, payload_ok ~status ~analysis ~engine:"tran" ~certificate ~newton ~krylov ~data, newton, krylov, None)
        | Sup.Failed f -> fail_sup f)
    | Batch.Spec.Hb { freq; harmonics } -> (
        let freq = match freq with Some f -> f | None -> List.hd (Mna.fundamentals c) in
        let n_samples = La.Fft.next_pow2 (4 * harmonics) in
        match
          sp "rf" "rf.pss" (fun () ->
              Rf.Pss.solve_outcome ~chain:(Rf.Pss.default_chain ~n_samples ()) c ~freq)
        with
        | Cascade.Completed (sol, rep) ->
            let certificate, status = verdict (certify (fun () -> Rf.Pss.certify ~tol_scale:1.0 sol)) in
            let newton = rep.Cascade.total_iterations
            and krylov = rep.Cascade.winner_report.Sup.stats.Sup.krylov_iterations in
            let data =
              Json.obj
                [
                  ( "harmonics",
                    Json.arr
                      (List.init (harmonics + 1) (fun k ->
                           Json.num (Rf.Pss.harmonic_amplitude sol s.node k))) );
                ]
            in
            ( status,
              payload_ok ~status ~analysis ~engine:rep.Cascade.winner ~certificate ~newton ~krylov ~data,
              newton, krylov, Some (rep.Cascade.winner = "hb") )
        | Cascade.Exhausted f ->
            ( Batch.Runner.Failed,
              payload_failed ~analysis ~cause:(Sup.cause_to_string f.Cascade.x_cause),
              f.Cascade.x_total_iterations, 0, Some false ))
    | Batch.Spec.Shooting _ -> Pb.fail "chain-sweep generates no shooting jobs"
  in
  let key = sp "batch" "batch.key" (fun () -> Batch.Runner.job_key (config ~domains:1 s) job) in
  sp "batch" "batch.cache" (fun () ->
      if Batch.Cache.lookup cache key = None && status <> Batch.Runner.Failed then
        Batch.Cache.store cache key payload);
  let result =
    { Batch.Runner.job; status; cached = false; replayed = false; payload; wall = Pb.now () -. t0; newton; krylov }
  in
  ignore (sp "batch" "batch.report" (fun () -> Batch.Report.line result));
  { result; hb_first_stage = first_stage }

let traced_sweep (s : Gen.sweep) =
  let dir = Pb.fresh "cache" in
  let cache = Batch.Cache.create ~dir () in
  let jobs, wall =
    Pb.timed (fun () ->
        Span.record ~id:s.name "batch" "sweep" (fun () -> List.map (traced_job s ~cache) s.jobs))
  in
  Pb.rm_rf dir;
  (jobs, wall)

let run_traced ~seed ~seconds ~tiny =
  let sweeps = Array.of_list (setup ~seed ~tiny) in
  let domains = Pb.nproc () in
  (* the fixed work: as many sweeps as domains-N runs in a quarter of the window *)
  let t0 = Pb.now () in
  let untraced_n = ref [] in
  while Pb.now () -. t0 < seconds /. 4.0 || !untraced_n = [] do
    let s = sweeps.(List.length !untraced_n mod Array.length sweeps) in
    untraced_n := (s, run_sweep ~domains s) :: !untraced_n
  done;
  let work = List.rev !untraced_n in
  let wall_n = List.fold_left (fun a (_, (_, w)) -> a +. w) 0.0 work in
  let untraced_1 = List.map (fun (s, _) -> run_sweep ~domains:1 s) work in
  let wall_1 = List.fold_left (fun a (_, w) -> a +. w) 0.0 untraced_1 in
  Span.enable ();
  let before = Probes.lu_counts () in
  let traced = List.map (fun (s, _) -> traced_sweep s) work in
  let wall_t = List.fold_left (fun a (_, w) -> a +. w) 0.0 traced in
  let jobs = List.concat_map fst traced in
  let n_jobs = List.length jobs in
  let lu = Probes.lu_metrics ~before ~ops:n_jobs in
  (* correctness: traced = domains-1 = domains-N, line for line *)
  let failed = ref (List.length (List.filter (fun j -> j.result.status <> Batch.Runner.Ok) jobs)) in
  List.iter2
    (fun ((_, (res_n, _)), (res_1, _)) (traced_jobs, _) ->
      let lines_1 = report_lines res_1 in
      let lines_t = List.map (fun j -> Batch.Report.line j.result) traced_jobs in
      failed := !failed + mismatches (report_lines res_n) lines_1 + mismatches lines_1 lines_t)
    (List.combine work untraced_1) traced;
  let largest =
    Array.fold_left
      (fun (best : Gen.sweep) (s : Gen.sweep) ->
        if String.length s.deck > String.length best.deck then s else best)
      sweeps.(0) sweeps
  in
  let big =
    let c = Mna.build (fst (Deck.parse_string largest.deck)) in
    Mna.set_ordering c ordering;
    c
  in
  let inputs =
    Array.to_list sweeps
    |> List.concat_map (fun (s : Gen.sweep) ->
           List.map (fun job -> { Probes.deck = s.deck; node = s.node; ordering; job }) s.jobs)
  in
  let probes = Probes.run ~inputs ~big in
  let sum f = List.fold_left (fun a j -> a + f j) 0 jobs in
  let span_ms name = List.map (fun d -> d *. 1e3) (Span.durations name) in
  let hb = List.filter_map (fun j -> j.hb_first_stage) jobs in
  let hb_newton =
    sum (fun j -> if j.hb_first_stage <> None then j.result.newton else 0)
  in
  {
    Pb.attempted = n_jobs;
    failed = !failed;
    metrics =
      [ Pb.m "trace_overhead_frac" "ratio" ((wall_t -. wall_1) /. wall_1) ]
      @ probes @ lu
      @ [
          Pb.m "solve.newton_iters" "count" (float_of_int (sum (fun j -> j.result.newton)) /. float_of_int n_jobs);
          Pb.m "solve.krylov_iters" "count" (float_of_int (sum (fun j -> j.result.krylov)) /. float_of_int n_jobs);
        ];
    detail =
      [
        Pb.m "circuit.dc_ms" "ms" (Pb.median (span_ms "circuit.dc"));
        Pb.m "circuit.ac_ms" "ms" (Pb.median (span_ms "circuit.ac"));
        Pb.m "circuit.tran_ms" "ms" (Pb.median (span_ms "circuit.tran"));
        Pb.m "solve.certify_ms" "ms" (Pb.median (span_ms "solve.certify"));
        Pb.m "rf.pss_ms" "ms" (Pb.median (span_ms "rf.pss"));
        Pb.m "rf.pss_ms_per_newton" "ms" (Span.total "rf.pss" *. 1e3 /. float_of_int (max 1 hb_newton));
        Pb.m "rf.cascade_first_stage_ratio" "ratio"
          (Pb.ratio (List.length (List.filter Fun.id hb)) (List.length hb));
        Pb.m "batch.parallel_speedup" "ratio" (wall_t /. wall_n);
        Pb.m "traced_jobs" "count" (float_of_int n_jobs);
      ];
  }

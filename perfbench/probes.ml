(* Per-call layer probes, run by every workload's traced pass on that
   workload's own inputs: deck parsing, MNA build, ordering, lint, MNA
   stamping and LU refactor/solve at a converged point, the batch key /
   cache / journal / report steps, and the serve frame codec. Each probe
   times [reps] calls per span and reports the median per-call time, so
   the microsecond-scale steps are not lost in clock resolution. *)

open Rfkit
open Rfkit_circuit

type input = {
  deck : string;
  node : string;
  ordering : Rfkit_struct.Order.mode;
  job : Batch.Expand.job;
}

let config (i : input) =
  {
    Batch.Runner.deck_text = i.deck;
    node = i.node;
    domains = 1;
    budget = None;
    tol_scale = 1.0;
    ordering = i.ordering;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

(* median per-call seconds of [f] over [batches] spans of [reps] calls *)
let probe ?(batches = 9) ~reps layer name f =
  let per_call =
    List.init batches (fun b ->
        let _, dt =
          Pb.timed (fun () ->
              Span.record ~id:(string_of_int b) layer name (fun () ->
                  for _ = 1 to reps do
                    f ()
                  done))
        in
        dt /. float_of_int reps)
  in
  Pb.median per_call

let nth_cycle l k = List.nth l (k mod List.length l)

(* The converged DC point of a circuit, for the stamping/LU probes. *)
let dc_point c =
  match Dc.solve_outcome c with
  | Rfkit_solve.Supervisor.Converged (x, _) -> x
  | Rfkit_solve.Supervisor.Failed _ -> La.Vec.create (Mna.size c)

(* [inputs] are representative jobs of the workload; [big] is the largest
   circuit it solves. *)
let run ~inputs ~(big : Mna.t) =
  let ms x = x *. 1e3 and us x = x *. 1e6 in
  let k = ref 0 in
  let next () =
    incr k;
    nth_cycle inputs !k
  in
  let parse () =
    let i = next () in
    ignore (Deck.parse_string ~overrides:i.job.Batch.Expand.params i.deck)
  in
  let parse_ms = probe ~reps:3 "circuit" "circuit.parse" parse in
  let parsed =
    List.map (fun i -> fst (Deck.parse_string ~overrides:i.job.Batch.Expand.params i.deck)) inputs
  in
  let build_ms =
    probe ~reps:3 "circuit" "circuit.mna_build" (fun () ->
        ignore (Mna.build (nth_cycle parsed !k));
        incr k)
  in
  let circuits = List.map Mna.build parsed in
  let ordering_ms =
    probe ~reps:3 "struct" "struct.ordering" (fun () ->
        let c = nth_cycle circuits !k in
        incr k;
        Mna.set_ordering c Rfkit_struct.Order.Natural;
        Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
        ignore (Mna.ordering_perm c))
  in
  let lint_ms =
    probe ~reps:3 "lint" "lint" (fun () ->
        ignore (Lint.lint_string (next ()).deck))
  in
  (* stamping and factor probes at the largest circuit's DC point *)
  let x = dc_point big in
  let stamp_us =
    probe ~reps:20 "circuit" "circuit.stamp" (fun () ->
        ignore (Mna.jac_g_sparse big x);
        ignore (Mna.jac_c_sparse big x))
  in
  let g = Mna.jac_g_sparse big x and cm = Mna.jac_c_sparse big x in
  let perm = Mna.ordering_perm big in
  let sym, lu = La.Sparse_lu.analyze ?perm g in
  let lu_refactor_us =
    probe ~reps:20 "la" "la.lu_refactor" (fun () -> ignore (La.Sparse_lu.refactor sym g))
  in
  let rhs = La.Vec.init (Mna.size big) (fun i -> 1.0 +. float_of_int (i mod 7)) in
  let lu_solve_us =
    probe ~reps:50 "la" "la.lu_solve" (fun () -> ignore (La.Sparse_lu.solve lu rhs))
  in
  let w = 2.0 *. Float.pi *. 1e6 in
  let gc =
    La.Csparse.add (La.Csparse.of_real g) (La.Csparse.scale (La.Cx.im w) (La.Csparse.of_real cm))
  in
  let csym, _ = La.Csparse_lu.analyze ?perm gc in
  let clu_refactor_us =
    probe ~reps:20 "la" "la.clu_refactor" (fun () -> ignore (La.Csparse_lu.refactor csym gc))
  in
  (* batch steps on real payloads: run a few jobs once to get them *)
  let dir = Pb.fresh "probe-cache" in
  let cache = Batch.Cache.create ~dir () in
  let telemetry = Batch.Telemetry.create ~progress:false ~total:0 () in
  let results =
    List.filteri (fun j _ -> j < 4) inputs
    |> List.filter_map (fun i ->
           Option.map (fun r -> (i, r))
             (Batch.Runner.run_one (config i) ~cache ~telemetry i.job))
  in
  Batch.Telemetry.close telemetry;
  let key_us =
    probe ~reps:20 "batch" "batch.key" (fun () ->
        let i = next () in
        ignore (Batch.Runner.job_key (config i) i.job))
  in
  let keyed =
    List.map (fun (i, (r : Batch.Runner.job_result)) -> (Batch.Runner.job_key (config i) i.job, r)) results
  in
  let store_cache = Batch.Cache.create ~dir:(Pb.fresh "probe-store") () in
  let stored = ref 0 in
  let cache_store_us =
    probe ~reps:10 "batch" "batch.cache_store" (fun () ->
        let _, (r : Batch.Runner.job_result) = nth_cycle keyed !stored in
        incr stored;
        Batch.Cache.store store_cache (Printf.sprintf "%040d" !stored) r.payload)
  in
  let cache_hit_us =
    probe ~reps:20 "batch" "batch.cache_hit" (fun () ->
        incr k;
        ignore (Batch.Cache.lookup cache (fst (nth_cycle keyed !k))))
  in
  let cache_miss_us =
    probe ~reps:20 "batch" "batch.cache_miss" (fun () ->
        incr k;
        ignore (Batch.Cache.lookup cache (Printf.sprintf "%040x" !k)))
  in
  let journal =
    Batch.Journal.create ~dir:(Pb.fresh "probe-journal") ~run:"perfbench-probe" ~total:1_000_000
  in
  let jobno = ref 0 in
  let journal_append_us =
    probe ~reps:5 "batch" "batch.journal_append" (fun () ->
        let key, _ = nth_cycle keyed !jobno in
        incr jobno;
        Batch.Journal.record_finish journal ~job:!jobno ~status:"ok" ~key ~payload:None)
  in
  Batch.Journal.close journal;
  let report_us =
    probe ~reps:50 "batch" "batch.report" (fun () ->
        incr k;
        ignore (Batch.Report.line (snd (nth_cycle keyed !k))))
  in
  let lines = List.map (fun (_, r) -> Batch.Report.line r) keyed in
  let frame_codec_us =
    probe ~reps:50 "serve" "serve.frame_codec" (fun () ->
        incr k;
        let line = nth_cycle lines !k in
        let wire =
          Serve.Frame.encode (Serve.Protocol.report_event ~run:"probe" ~job:!k ~line)
        in
        let framer = Serve.Frame.create () in
        List.iter
          (function
            | Serve.Frame.Frame body -> (
                match Serve.Protocol.response_of_json body with
                | Ok (Serve.Protocol.R_report { r_line; _ }) ->
                    if r_line <> line then Pb.fail "frame codec altered a report line"
                | _ -> Pb.fail "frame codec lost a report frame")
            | Serve.Frame.Oversized _ -> Pb.fail "oversized probe frame")
          (Serve.Frame.feed framer wire))
  in
  [
    Pb.m "circuit.parse_ms" "ms" (ms parse_ms);
    Pb.m "circuit.mna_build_ms" "ms" (ms build_ms);
    Pb.m "struct.ordering_ms" "ms" (ms ordering_ms);
    Pb.m "lint.ms" "ms" (ms lint_ms);
    Pb.m "circuit.stamp_us" "us" (us stamp_us);
    Pb.m "la.lu_refactor_us" "us" (us lu_refactor_us);
    Pb.m "la.lu_solve_us" "us" (us lu_solve_us);
    Pb.m "la.clu_refactor_us" "us" (us clu_refactor_us);
    Pb.m "batch.key_us" "us" (us key_us);
    Pb.m "batch.cache_hit_us" "us" (us cache_hit_us);
    Pb.m "batch.cache_miss_us" "us" (us cache_miss_us);
    Pb.m "batch.cache_store_us" "us" (us cache_store_us);
    Pb.m "batch.journal_append_us" "us" (us journal_append_us);
    Pb.m "batch.report_us" "us" (us report_us);
    Pb.m "serve.frame_codec_us" "us" (us frame_codec_us);
  ]

(* Process-global LU counters, read as deltas around a single-domain
   pass; per operation they are exact only at domains = 1. *)
type lu_counts = { full : int; refactor : int; cfull : int; crefactor : int }

let lu_counts () =
  let full, refactor = La.Sparse_lu.counts () and cfull, crefactor = La.Csparse_lu.counts () in
  { full; refactor; cfull; crefactor }

let lu_metrics ~(before : lu_counts) ~ops =
  let a = lu_counts () in
  let full = a.full - before.full and refactor = a.refactor - before.refactor in
  let cfull = a.cfull - before.cfull and crefactor = a.crefactor - before.crefactor in
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  [
    Pb.m "la.lu_full" "count" (per full);
    Pb.m "la.lu_refactor" "count" (per refactor);
    Pb.m "la.lu_reuse_ratio" "ratio" (Pb.ratio refactor (full + refactor));
    Pb.m "la.clu_full" "count" (per cfull);
    Pb.m "la.clu_refactor" "count" (per crefactor);
    Pb.m "la.clu_reuse_ratio" "ratio" (Pb.ratio crefactor (cfull + crefactor));
    Pb.m "la.fill_nnz" "count"
          (float_of_int (La.Sparse_lu.fill_nnz ()));
  ]

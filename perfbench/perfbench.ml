(* The rfkit benchmark's entry point.

     perfbench --workload chain-sweep|small-served|paper-kernels
               --seed N --seconds S --trace 0|1 --rfsim PATH [--size tiny]
     perfbench --dump-inputs --seed N

   Untraced runs (--trace 0) print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer metrics. The last stdout line is the
   result object {"correct","attempted","failed","metrics"}; the line
   before it is a record with the machine fingerprint and the
   workload-specific metrics. All files go under .perfbench/ in the
   current directory. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --rfsim PATH \
     [--size tiny|full]\n       perfbench --dump-inputs --seed N";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rfsim : string;
  tiny : bool;
  dump : bool;
}

let parse argv =
  let a =
    ref { workload = ""; seed = 1; seconds = 10.0; trace = false; rfsim = ""; tiny = false; dump = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = v = "1" };
        go rest
    | "--rfsim" :: v :: rest ->
        a := { !a with rfsim = v };
        go rest
    | "--size" :: v :: rest ->
        a := { !a with tiny = v = "tiny" };
        go rest
    | "--dump-inputs" :: rest ->
        a := { !a with dump = true };
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  !a

(* every generated input, one line each: the seed-determinism test
   compares these listings *)
let dump_inputs seed =
  List.iter
    (fun (s : Gen.sweep) ->
      Printf.printf "chain %s %s\n" s.name (Digest.to_hex (Digest.string s.deck));
      List.iter
        (fun (j : Rfkit.Batch.Expand.job) ->
          Printf.printf "  job %d %s %s\n" j.id
            (Rfkit.Batch.Expand.params_json j.params)
            (Rfkit.Batch.Spec.analysis_tag j.analysis))
        s.jobs)
    (Gen.chain_sweeps ~seed ~tiny:false);
  for client = 0 to 1 do
    List.iteri
      (fun i op ->
        match op with
        | Gen.Cold (s : Gen.served) ->
            Printf.printf "served %d %d cold %s %s %s\n" client i s.s_label
              (String.concat " " s.s_params) s.s_analyses
        | Gen.Warm k -> Printf.printf "served %d %d warm %d\n" client i k)
      (Gen.served_ops ~seed ~client ~count:40)
  done;
  for round = 0 to 9 do
    Printf.printf "kernels %d %s\n" round
      (String.concat " " (List.map Gen.kernel_name (Gen.kernel_round ~seed ~round)))
  done

let () =
  let a = parse Sys.argv in
  if a.dump then (dump_inputs a.seed; exit 0);
  if a.seconds <= 0.0 then usage ();
  at_exit Pb.cleanup;
  (* a stop signal still runs the at_exit hooks: work files are removed
     and any rfsim serve child is killed and reaped *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let setup_reps k = if a.tiny then 1 else k in
  let rfsim () =
    if a.rfsim = "" || not (Sys.file_exists a.rfsim) then Pb.fail "--rfsim must name the rfsim executable";
    a.rfsim
  in
  let seed = a.seed and seconds = a.seconds and tiny = a.tiny in
  let fingerprint = Pb.fingerprint () in
  let o =
    match (a.workload, a.trace) with
    | "chain-sweep", false -> Chain.run ~seed ~seconds ~setup_reps:(setup_reps 9) ~tiny
    | "chain-sweep", true -> Chain.run_traced ~seed ~seconds ~tiny
    | "small-served", false ->
        Served.run ~rfsim:(rfsim ()) ~seed ~seconds ~setup_reps:(setup_reps 9) ~tiny
    | "small-served", true -> Served.run_traced ~rfsim:(rfsim ()) ~seed ~seconds ~tiny
    | "paper-kernels", false -> Kernels.run ~seed ~seconds ~setup_reps:(setup_reps 3) ~tiny
    | "paper-kernels", true -> Kernels.run_traced ~seed ~seconds ~tiny
    | _ -> usage ()
  in
  let detail =
    if a.trace then begin
      let path =
        Filename.concat Pb.work_root (Printf.sprintf "trace-%s-%d.json" a.workload seed)
      in
      Span.write path
        ~header:(Printf.sprintf "{\"workload\":%S,\"seed\":%d,\"fingerprint\":%s}" a.workload seed fingerprint);
      o.detail
      @ List.map (fun (layer, s) -> Pb.m ("self." ^ layer ^ "_ms") "ms" (s *. 1e3)) (Span.self_by_layer ())
    end
    else o.detail
  in
  Printf.printf "{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"fingerprint\":%s,\"detail\":%s}\n"
    a.workload seed
    (if a.trace then 1 else 0)
    fingerprint (Pb.metrics_json detail);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed (Pb.metrics_json o.metrics)

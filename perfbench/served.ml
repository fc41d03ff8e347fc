(* small-served: the I/O-bound workload.

   A separate [rfsim serve] process with one worker domain serves two
   closed-loop client connections from this process. Each client
   alternates cold sweeps (new points: cache stores plus journal fsyncs)
   with exact resubmits of a sweep it already finished (all cache hits
   plus journal fsyncs). Engines are sub-millisecond on these decks, so
   serve, the batch cache/journal/key/report steps, lint and deck parsing
   dominate. After the timed window every served report must equal, byte
   for byte, an offline [Runner.run] of the same sweep. *)

open Rfkit

type server = { pid : int; out : Unix.file_descr; socket : string; dir : string }

(* servers not yet stopped; killed at exit, so a benchmark that fails
   half-way never leaves a daemon behind *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* start [rfsim serve] and wait for its ready line *)
let start ~rfsim =
  let dir = Pb.fresh "serve" in
  Pb.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile (Filename.concat dir "serve.err") [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process rfsim
      [| rfsim; "serve"; "--socket"; socket; "--jobs"; "1"; "--cache-dir"; Filename.concat dir "cache" |]
      Unix.stdin out_w err
  in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close err;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = Pb.now () +. 30.0 in
  let rec wait () =
    if Pb.now () > deadline then Pb.fail "rfsim serve did not become ready";
    match Unix.select [ out_r ] [] [] 1.0 with
    | [], _, _ -> wait ()
    | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then Pb.fail "rfsim serve exited before its ready line";
        Buffer.add_subbytes buf chunk 0 n;
        if not (String.contains (Buffer.contents buf) '\n') then wait ()
  in
  wait ();
  let line = Buffer.contents buf in
  if not (Pb.contains line {|"serve":"ready"|}) then Pb.fail "unexpected serve output: %s" line;
  { pid; out = out_r; socket; dir }

(* stop by PID only; the drain exit code is 5 *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, st = Unix.waitpid [] s.pid in
  live := List.filter (( <> ) s.pid) !live;
  Unix.close s.out;
  match st with
  | Unix.WEXITED (0 | 5) -> ()
  | Unix.WEXITED c -> Pb.fail "rfsim serve exited with %d" c
  | _ -> Pb.fail "rfsim serve was killed"

let client_config (s : server) = { Serve.Client.default_config with socket_path = s.socket; events = true }

let submit_of (sw : Gen.served) =
  {
    Serve.Protocol.s_deck = sw.s_deck;
    s_params = sw.s_params;
    s_corners = [];
    s_analyses = sw.s_analyses;
    s_node = sw.s_node;
    s_defaults = Gen.served_defaults;
    s_events = true;
    s_no_lint = false;
  }

let lint_decks () =
  List.iter
    (fun deck ->
      if Lint.has_errors (Lint.lint_string deck) then Pb.fail "served deck has lint errors")
    [ Gen.lowpass_deck; Gen.rectifier_deck ]

(* ------------------------------------------------------ client loop -- *)

type record = {
  sweep : Gen.served;
  cold : bool;
  wall : float;
  job_lat : float list;  (** submit -> job event, per job *)
  report : string list;
  ok : int;
  bad : int;  (** failed or suspect jobs, or a sweep that gave up *)
}

let not_ok line = not (Pb.contains line {|"result":{"status":"ok"|})

let retries = Atomic.make 0
let overloaded = Atomic.make 0

let served_sweep cfg ~cold (sw : Gen.served) =
  let lats = ref [] in
  let t0 = Pb.now () in
  let progress note =
    if Pb.contains note "job " then lats := (Pb.now () -. t0) :: !lats;
    if Pb.contains note "attempt " then Atomic.incr retries;
    if Pb.contains note "overloaded" then Atomic.incr overloaded
  in
  let outcome = Serve.Client.run_sweep ~progress cfg (submit_of sw) in
  let wall = Pb.now () -. t0 in
  match outcome with
  | Serve.Client.Completed r ->
      let s = r.Serve.Client.summary in
      List.iter
        (fun line -> if not_ok line then prerr_endline ("perfbench: served job not ok: " ^ line))
        r.report;
      { sweep = sw; cold; wall; job_lat = !lats; report = r.report; ok = s.ok; bad = s.jobs - s.ok }
  | Serve.Client.Gave_up why ->
      prerr_endline ("perfbench: served sweep gave up: " ^ why);
      { sweep = sw; cold; wall; job_lat = []; report = []; ok = 0; bad = max 1 (List.length (Gen.served_jobs sw)) }

(* one closed-loop client: run its ops until [deadline] or [max_ops] *)
let client_loop cfg ~ops ~deadline ~max_ops =
  let colds = ref [||] in
  let records = ref [] in
  let rec go n = function
    | [] -> ()
    | _ when Pb.now () > deadline || n >= max_ops -> ()
    | op :: rest ->
        let r =
          match op with
          | Gen.Cold sw ->
              let r = served_sweep cfg ~cold:true sw in
              colds := Array.append !colds [| sw |];
              r
          | Gen.Warm k -> served_sweep cfg ~cold:false !colds.(k)
        in
        records := r :: !records;
        go (n + 1) rest
  in
  go 0 ops;
  List.rev !records

(* ------------------------------------------------------ offline check -- *)

let offline_config ~domains (sw : Gen.served) =
  {
    Batch.Runner.deck_text = sw.s_deck;
    node = sw.s_node;
    domains;
    budget = None;
    tol_scale = 1.0;
    ordering = Rfkit_struct.Order.Natural;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

let offline_report ~domains (sw : Gen.served) =
  let cache = Batch.Cache.create ~enabled:false ~dir:(Pb.fresh "offline") () in
  let telemetry = Batch.Telemetry.create ~progress:false ~total:0 () in
  let o = Batch.Runner.run (offline_config ~domains sw) ~cache ~telemetry (Gen.served_jobs sw) in
  Batch.Telemetry.close telemetry;
  Chain.report_lines o.Batch.Runner.results

(* mismatching report lines of every record against its offline run *)
let check ~domains records =
  let offline = Hashtbl.create 64 in
  List.fold_left
    (fun bad r ->
      let reference =
        match Hashtbl.find_opt offline r.sweep with
        | Some l -> l
        | None ->
            let l = offline_report ~domains r.sweep in
            Hashtbl.replace offline r.sweep l;
            l
      in
      bad + Chain.mismatches reference r.report)
    0 records

(* ------------------------------------------------------- untraced -- *)

let ops_per_client = 4000

let setup ~rfsim ~seed =
  let ops = List.init 2 (fun client -> Gen.served_ops ~seed ~client ~count:ops_per_client) in
  lint_decks ();
  let s = start ~rfsim in
  (* one status round trip: the service answers, not just listens *)
  (match Serve.Client.status (client_config s) with
  | Ok _ -> ()
  | Error e -> Pb.fail "status request failed: %s" e);
  (ops, s)

let run ~rfsim ~seed ~seconds ~setup_reps ~tiny =
  let max_ops = if tiny then 4 else max_int in
  let (ops, server), setup_s =
    Pb.setup_median ~reps:setup_reps ~release:(fun (_, s) -> stop s) (fun () -> setup ~rfsim ~seed)
  in
  let cfg = client_config server in
  let t0 = Pb.now () in
  let deadline = t0 +. seconds in
  (* client threads share this process's one domain: they mostly wait on
     their sockets, and a second domain would only add stop-the-world
     synchronisation to what is measured *)
  let results = Array.make (List.length ops) [] in
  let clients =
    List.mapi
      (fun i ops -> Thread.create (fun () -> results.(i) <- client_loop cfg ~ops ~deadline ~max_ops) ())
      ops
  in
  List.iter Thread.join clients;
  let records = List.concat (Array.to_list results) in
  let elapsed = Pb.now () -. t0 in
  let rss = Pb.peak_rss_mb (string_of_int server.pid) in
  stop server;
  let mismatched = check ~domains:(Pb.nproc ()) records in
  let jobs = List.fold_left (fun a r -> a + r.ok + r.bad) 0 records in
  let ok = List.fold_left (fun a r -> a + r.ok) 0 records in
  let bad = List.fold_left (fun a r -> a + r.bad) 0 records in
  let ms = List.map (fun x -> x *. 1e3) in
  let cold = List.filter (fun r -> r.cold) records and warm = List.filter (fun r -> not r.cold) records in
  let cold_ms = ms (List.map (fun r -> r.wall) cold) in
  {
    Pb.attempted = jobs;
    failed = bad + mismatched;
    metrics =
      [
        Pb.m "setup_s" "s" setup_s;
        Pb.m "jobs_per_s" "1/s" (float_of_int ok /. elapsed);
        Pb.m "job_p50_ms" "ms" (Pb.median (ms (List.concat_map (fun r -> r.job_lat) records)));
        Pb.m "sweep_p50_ms" "ms" (Pb.median cold_ms);
        Pb.m "peak_rss_mb" "MB" rss;
      ];
    detail =
      (if List.length cold >= 100 then [ Pb.m "sweep_p90_ms" "ms" (Pb.quantile 0.9 cold_ms) ] else [])
      @ [
          Pb.m "warm_sweep_p50_ms" "ms" (Pb.median (ms (List.map (fun r -> r.wall) warm)));
          Pb.m "cold_sweeps" "count" (float_of_int (List.length cold));
          Pb.m "warm_sweeps" "count" (float_of_int (List.length warm));
          Pb.m "serve.retries" "count" (float_of_int (Atomic.get retries));
          Pb.m "serve.overloaded" "count" (float_of_int (Atomic.get overloaded));
          Pb.m "failed_frac" "ratio" (Pb.ratio (bad + mismatched) jobs);
        ];
  }

(* -------------------------------------------------------- traced -- *)

type wire = { ack : float; first_report : float; done_ : float; lines : string list }

(* one sweep over Serve.Frame/Protocol directly, timing the responses *)
let wire_sweep (s : server) (sw : Gen.served) ~id =
  let sp name f = Span.record ~id "serve" name f in
  let t0 = Pb.now () in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      sp "serve.connect" (fun () -> Unix.connect fd (Unix.ADDR_UNIX s.socket));
      let req = Serve.Frame.encode (Serve.Protocol.request_to_json (Serve.Protocol.Submit (submit_of sw))) in
      sp "serve.send" (fun () ->
          ignore (Unix.write_substring fd req 0 (String.length req)));
      let framer = Serve.Frame.create () in
      let buf = Bytes.create 65536 in
      let ack = ref nan and first = ref nan and lines = ref [] in
      let rec read () =
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then Pb.fail "server closed the connection mid-sweep";
        let rec frames = function
          | [] -> read ()
          | Serve.Frame.Oversized _ :: _ -> Pb.fail "oversized response frame"
          | Serve.Frame.Frame body :: rest -> (
              let t = Pb.now () -. t0 in
              match Serve.Protocol.response_of_json body with
              | Ok (Serve.Protocol.R_ack _) ->
                  ack := t;
                  frames rest
              | Ok (Serve.Protocol.R_report { r_line; _ }) ->
                  if Float.is_nan !first then first := t;
                  lines := r_line :: !lines;
                  frames rest
              | Ok (Serve.Protocol.R_done _) -> t
              | Ok (Serve.Protocol.R_error { e_detail; _ }) -> Pb.fail "served error: %s" e_detail
              | Ok _ -> frames rest
              | Error e -> Pb.fail "bad response frame: %s" e)
        in
        frames (Serve.Frame.feed framer (Bytes.sub_string buf 0 n))
      in
      let done_ = sp "serve.sweep" read in
      { ack = !ack; first_report = !first; done_; lines = List.rev !lines })

let json_int body key =
  match Batch.Json.parse body with
  | None -> 0
  | Some v -> (
      let path = String.split_on_char '.' key in
      let rec walk v = function
        | [] -> Batch.Json.to_int v
        | k :: rest -> Option.bind (Batch.Json.member k v) (fun v -> walk v rest)
      in
      match walk v path with Some n -> n | None -> 0)

let run_traced ~rfsim ~seed ~seconds ~tiny =
  lint_decks ();
  let server = start ~rfsim in
  let cfg = client_config server in
  (* untraced reference: one client, a quarter of the window *)
  let ops_a = Gen.served_ops ~seed ~client:0 ~count:ops_per_client in
  let max_ops = if tiny then 4 else max_int in
  let untraced = client_loop cfg ~ops:ops_a ~deadline:(Pb.now () +. (seconds /. 4.0)) ~max_ops in
  let wall_u = List.fold_left (fun a r -> a +. r.wall) 0.0 untraced in
  (* traced: the same number of ops of the same shape, over the wire *)
  Span.enable ();
  let ops_b = List.filteri (fun i _ -> i < List.length untraced) (Gen.served_ops ~seed ~client:1 ~count:ops_per_client) in
  let colds = ref [||] in
  let traced =
    List.mapi
      (fun i op ->
        let sw =
          match op with
          | Gen.Cold sw ->
              colds := Array.append !colds [| sw |];
              sw
          | Gen.Warm k -> !colds.(k)
        in
        (sw, Gen.(match op with Cold _ -> true | Warm _ -> false), wire_sweep server sw ~id:(string_of_int i)))
      ops_b
  in
  let wall_t = List.fold_left (fun a (_, _, w) -> a +. w.done_) 0.0 traced in
  let status =
    match Serve.Client.status cfg with Ok body -> body | Error e -> Pb.fail "status failed: %s" e
  in
  stop server;
  let hits = json_int status "cache.hits" and misses = json_int status "cache.misses" in
  let records =
    untraced
    @ List.map
        (fun (sw, cold, w) ->
          let bad = List.length (List.filter not_ok w.lines) in
          { sweep = sw; cold; wall = w.done_; job_lat = []; report = w.lines; ok = List.length w.lines - bad; bad })
        traced
  in
  let before = Probes.lu_counts () in
  let mismatched = check ~domains:1 records in
  let jobs = List.fold_left (fun a r -> a + r.ok + r.bad) 0 records in
  let lu = Probes.lu_metrics ~before ~ops:jobs in
  let bad = List.fold_left (fun a r -> a + r.bad) 0 records in
  let sweeps = List.concat_map (fun r -> List.map (fun j -> (r.sweep, j)) (Gen.served_jobs r.sweep)) records in
  let inputs =
    List.filteri (fun i _ -> i < 64) sweeps
    |> List.map (fun ((sw : Gen.served), job) ->
           { Probes.deck = sw.s_deck; node = sw.s_node; ordering = Rfkit_struct.Order.Natural; job })
  in
  let big = Rfkit_circuit.Mna.build (fst (Rfkit_circuit.Deck.parse_string Gen.rectifier_deck)) in
  let probes = Probes.run ~inputs ~big in
  let iters field =
    List.fold_left
      (fun a r ->
        List.fold_left
          (fun a line ->
            match Batch.Json.parse line with
            | Some v -> (
                match Option.bind (Batch.Json.member "result" v) (Batch.Json.member field) with
                | Some n -> a + Option.value ~default:0 (Batch.Json.to_int n)
                | None -> a)
            | None -> a)
          a r.report)
      0 records
  in
  let ms_of f = Pb.median (List.map (fun (_, _, w) -> f w *. 1e3) traced) in
  {
    Pb.attempted = jobs;
    failed = bad + mismatched;
    metrics =
      [ Pb.m "trace_overhead_frac" "ratio" ((wall_t -. wall_u) /. wall_u) ]
      @ probes @ lu
      @ [
          Pb.m "solve.newton_iters" "count" (float_of_int (iters "newton") /. float_of_int (max 1 jobs));
          Pb.m "solve.krylov_iters" "count" (float_of_int (iters "krylov") /. float_of_int (max 1 jobs));
        ];
    detail =
      [
        Pb.m "serve.ack_ms" "ms" (ms_of (fun w -> w.ack));
        Pb.m "serve.first_report_ms" "ms" (ms_of (fun w -> w.first_report));
        Pb.m "serve.done_ms" "ms" (ms_of (fun w -> w.done_));
        Pb.m "serve.retries" "count" (float_of_int (Atomic.get retries));
        Pb.m "serve.overloaded" "count" (float_of_int (json_int status "overloaded"));
        Pb.m "batch.cache_hit_ratio" "ratio" (Pb.ratio hits (hits + misses));
        Pb.m "traced_sweeps" "count" (float_of_int (List.length traced));
      ];
  }

(* Shared helpers: timing, order statistics, metric records, the machine
   fingerprint, peak RSS and work directories. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* linear-interpolated quantile, q in [0,1]; nan on an empty list *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------ metrics -- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

(* What a workload run returns. [e2e] (untraced) or [layers] (traced) fill
   the final result line; [detail] carries the workload-specific metrics
   the issue names, printed by name and unit on the line before it. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : metric list;
}

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun x -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.m_name (num x.m_value) x.m_unit)
         ms)
  ^ "}"

(* ---------------------------------------------------------- machine -- *)

(* fixed floating-point loop; its time normalizes records across hosts *)
let calibration_ms () =
  let once () =
    let t0 = now () in
    let acc = ref 0.0 in
    for i = 1 to 20_000_000 do
      acc := !acc +. (1.0 /. float_of_int i)
    done;
    if !acc < 0.0 then print_string "";
    (now () -. t0) *. 1e3
  in
  List.fold_left min infinity (List.init 3 (fun _ -> once ()))

let nproc () = Domain.recommended_domain_count ()

let fingerprint () =
  Printf.sprintf "{\"nproc\":%d,\"ocaml\":%S,\"calibration_ms\":%s,\"os\":%S}" (nproc ())
    Sys.ocaml_version
    (num (calibration_ms ()))
    Sys.os_type

(* VmHWM of a process in MB (kB in /proc) *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  try
    let ic = open_in path in
    let rec loop () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> loop ()
      | exception End_of_file -> nan
    in
    let v = loop () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* ------------------------------------------------------------- files -- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* All benchmark files live under [.perfbench/] in the current directory
   (the checkout root), one subdirectory per process. *)
let work_root = ".perfbench"

let work_dir =
  lazy
    (let d = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     d)

let fresh =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Filename.concat (Lazy.force work_dir) (Printf.sprintf "%s-%d" tag !n) in
    rm_rf d;
    d

let cleanup () = if Lazy.is_val work_dir then rm_rf (Lazy.force work_dir)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* Run [f] [reps] times and keep the last result, [release]-ing the
   others; the time is the median over the repetitions. *)
let setup_median ~reps ?(release = ignore) f =
  let rec go k times =
    let r, dt = timed f in
    if k <= 1 then (r, median (dt :: times))
    else begin
      release r;
      go (k - 1) (dt :: times)
    end
  in
  go (max 1 reps) []

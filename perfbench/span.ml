(* In-memory span recorder for the traced run.

   A span is (layer, name, start, end, parent, id): [layer] is the lib/
   module the timed call goes into, [id] names the job or sweep it serves.
   Spans are recorded around calls made from the benchmark's own files;
   nothing inside the library is instrumented. Recording is off unless
   {!enable} was called, so untraced runs pay one branch per call. Spans
   stay in memory until {!write} dumps them at the end of the run. The
   traced passes run on one domain, so a plain stack gives the parent. *)

type t = {
  idx : int;
  layer : string;
  name : string;
  id : string;
  t0 : float;
  t1 : float;
  parent : int;  (** [idx] of the enclosing span, [-1] at top level *)
}

let enabled = ref false
let spans : t list ref = ref []
let next = ref 0
let stack : int list ref = ref []
let enable () = enabled := true

let record ?(id = "") layer name f =
  if not !enabled then f ()
  else begin
    let idx = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { idx; layer; name; id; t0; t1; parent } :: !spans)
      f
  end

let all () = List.rev !spans
let named name = List.filter (fun s -> s.name = name) (all ())
let dur s = s.t1 -. s.t0

(* total seconds of the spans called [name] *)
let total name = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named name)
let durations name = List.map dur (named name)

(* Self time per layer: each span's duration minus what its direct
   children cover, summed by layer. *)
let self_by_layer () =
  let all = all () in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.idx) in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [] |> List.sort compare

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write path ~header =
  let oc = open_out path in
  let base = match all () with s :: _ -> s.t0 | [] -> 0.0 in
  Printf.fprintf oc "{\"header\":%s,\"traceEvents\":[" header;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%S}}"
        (if i = 0 then "" else ",")
        s.name s.layer
        ((s.t0 -. base) *. 1e6)
        (dur s *. 1e6) s.idx s.parent s.id)
    (all ());
  output_string oc "\n]}\n";
  close_out oc

(* Seeded input generators. Every workload input is a pure function of the
   benchmark seed: the same seed gives the same decks, job lists, sweep
   points and kernel order; the program only ever sees the generated
   inputs. *)

open Rfkit

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]
let pick st lo hi = lo + Random.State.int st (hi - lo + 1)
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* a float rendered with 4 significant digits, so deck text and sweep axes
   round-trip exactly through the deck number grammar *)
let round4 x = float_of_string (Printf.sprintf "%.4g" x)

(* ------------------------------------------------------ chain decks -- *)

(* bit-reversed stage order (as bench/exp_sparsity.ml's scrambled_chain):
   node indices lose their chain adjacency, so the natural elimination
   order fills badly and the fill-reducing ordering has real work *)
let bitrev_order stages =
  let bits =
    let rec go b = if 1 lsl b >= stages + 1 then b else go (b + 1) in
    go 0
  in
  let bitrev k =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if k land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  List.init stages (fun i -> i + 1)
  |> List.sort (fun a b -> compare (bitrev a, a) (bitrev b, b))

(* RC-diode ladder: series R, shunt diode, shunt load {RL}, shunt cap {CS}
   per stage, driven by a SIN source (its offset is the DC operating point,
   its frequency the HB fundamental). *)
let chain_deck ~stages ~scrambled =
  let b = Buffer.create (stages * 80) in
  Printf.bprintf b "* perfbench chain: %d stages, %s order\n" stages
    (if scrambled then "bit-reversed" else "natural");
  Buffer.add_string b ".param RL=10k CS=1p\n";
  Buffer.add_string b "V1 n0 0 SIN(1.5 0.3 10meg)\n";
  let order =
    if scrambled then bitrev_order stages else List.init stages (fun i -> i + 1)
  in
  List.iter
    (fun k ->
      Printf.bprintf b "R%d n%d n%d 200\n" k (k - 1) k;
      Printf.bprintf b "D%d n%d 0 IS=1e-14\n" k k;
      Printf.bprintf b "RS%d n%d 0 {RL}\n" k k;
      Printf.bprintf b "C%d n%d 0 {CS}\n" k k)
    order;
  Buffer.add_string b ".end\n";
  Buffer.contents b

type sweep = {
  name : string;  (** human label, e.g. ["dcactran-312-scrambled"] *)
  deck : string;
  node : string;  (** output node of ac/tran/hb payloads *)
  jobs : Batch.Expand.job list;
}

let chain_defaults =
  {
    Batch.Spec.default_defaults with
    d_points_per_decade = 5;
    d_t_stop = 2e-7;
    d_dt = 4e-9;
    d_harmonics = 4;
  }

let axis name values = { Batch.Spec.a_name = name; a_values = values }

(* [big] decks of 200-400 stages carry dc/ac/tran jobs; small decks of
   12-25 stages carry hb jobs through the default PSS cascade, whose dense
   first stage costs (samples * n)^3 and caps the usable size. [stratum]
   of [strata] picks the deck size: one seeded draw inside each equal
   slice of the range, so every seed covers the whole range and runs of
   different seeds do comparable work. *)
let chain_sweep st ~index ~big ~tiny ~stratum ~strata =
  let scrambled = index mod 2 = 1 in
  let lo, hi =
    match (big, tiny) with
    | true, false -> (200, 400)
    | false, false -> (12, 25)
    | true, true -> (20, 40)
    | false, true -> (4, 6)
  in
  let slice = float_of_int (hi - lo) /. float_of_int strata in
  let stages = lo + truncate ((float_of_int stratum +. Random.State.float st 1.0) *. slice) in
  let rl = Array.init 2 (fun _ -> round4 (uniform st 5e3 20e3)) in
  let cs = Array.init 2 (fun _ -> round4 (uniform st 0.5e-12 2e-12)) in
  let analyses =
    List.map
      (Batch.Spec.parse_analysis chain_defaults)
      (if big then [ "dc"; "ac"; "tran" ] else [ "hb" ])
  in
  {
    name =
      Printf.sprintf "%s-%d-%s"
        (if big then "dcactran" else "hb")
        stages
        (if scrambled then "scrambled" else "natural");
    deck = chain_deck ~stages ~scrambled;
    node = Printf.sprintf "n%d" stages;
    jobs = Batch.Expand.expand ~axes:[ axis "RL" rl; axis "CS" cs ] ~corners:[] ~analyses;
  }

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Twelve sweeps: eight dc/ac/tran sweeps on big decks and four hb sweeps
   on small ones, in seeded size strata and seeded order, every third
   sweep an hb sweep; natural and bit-reversed stage order alternate.
   [tiny] shrinks every deck for the smoke test. *)
let chain_sweeps ~seed ~tiny =
  let st = rng seed "chain" in
  let big = shuffle st (List.init 8 Fun.id) and small = shuffle st (List.init 4 Fun.id) in
  let rec interleave index big small =
    match (index mod 3, big, small) with
    | 2, _, s :: small | _, [], s :: small ->
        chain_sweep st ~index ~big:false ~tiny ~stratum:s ~strata:4
        :: interleave (index + 1) big small
    | _, b :: big, _ ->
        chain_sweep st ~index ~big:true ~tiny ~stratum:b ~strata:8 :: interleave (index + 1) big small
    | _, [], [] -> []
  in
  interleave 0 big small

(* ---------------------------------------------------- served sweeps -- *)

let lowpass_deck =
  "* perfbench lowpass: two-pole RC\n\
   .param R1=1k C2=100p\n\
   V1 in 0 SIN(0 1 1meg)\n\
   R1 in a {R1}\n\
   C1 a 0 1n\n\
   R2 a out 5k\n\
   C2 out 0 {C2}\n\
   .end\n"

let rectifier_deck =
  "* perfbench rectifier: half-wave diode\n\
   .param RL=10k CL=100p\n\
   V1 in 0 SIN(0 2 10meg)\n\
   RS in a 50\n\
   D1 a out IS=1e-14\n\
   RL out 0 {RL}\n\
   CL out 0 {CL}\n\
   .end\n"

let served_defaults =
  {
    Batch.Spec.default_defaults with
    d_points_per_decade = 5;
    d_t_stop = 2e-7;
    d_dt = 2e-9;
    d_harmonics = 3;
  }

(* One served sweep: [s_params] in the axis grammar, so the served request
   and the offline check expand to the same job list. *)
type served = {
  s_label : string;
  s_deck : string;
  s_node : string;
  s_params : string list;
  s_analyses : string;
}

(* 16-32 jobs: a 2-value second axis times 2-5 first-axis values times the
   analyses. The small hb runs on the lowpass only: at 3 harmonics the
   half-wave rectifier's waveform is under-resolved and its certificate
   rightly marks some points suspect, while enough harmonics to resolve it
   would make hb dominate this I/O-bound workload. *)
let served_sweep st ~index =
  let list n lo hi =
    String.concat ","
      (List.init n (fun _ -> Printf.sprintf "%.4g" (round4 (uniform st lo hi))))
  in
  if index mod 2 = 1 then
    let n = pick st 3 5 in
    {
      s_label = "rectifier";
      s_deck = rectifier_deck;
      s_node = "out";
      s_params = [ "RL=" ^ list n 2e3 50e3; "CL=" ^ list 2 20e-12 500e-12 ];
      s_analyses = "dc,ac,tran";
    }
  else
    let n = pick st 2 4 in
    {
      s_label = "lowpass";
      s_deck = lowpass_deck;
      s_node = "out";
      s_params = [ "R1=" ^ list n 200.0 20e3; "C2=" ^ list 2 10e-12 1e-9 ];
      s_analyses = "dc,ac,tran,hb";
    }

(* Per client: cold sweeps (new points) alternating with exact resubmits of
   a sweep the same client already finished. [Cold s] is new; [Warm k]
   resubmits the client's k-th cold sweep. *)
type served_op = Cold of served | Warm of int

let served_ops ~seed ~client ~count =
  let st = rng seed (Printf.sprintf "served-%d" client) in
  let colds = ref 0 in
  List.init count (fun i ->
      if i mod 2 = 0 || !colds = 0 then begin
        let s = served_sweep st ~index:(!colds + client) in
        incr colds;
        Cold s
      end
      else Warm (Random.State.int st !colds))

let served_jobs (s : served) =
  let axes = List.map Batch.Spec.parse_axis s.s_params in
  Batch.Expand.expand ~axes ~corners:[]
    ~analyses:(Batch.Spec.parse_analyses served_defaults s.s_analyses)

(* ---------------------------------------------------- paper kernels -- *)

type kernel = Hb2_fig1 | Mmft_fig4 | Ies3_fig6 | Pvl_sec5 | Pnoise_sec3 | Opt_lowpass

let all_kernels = [ Hb2_fig1; Mmft_fig4; Ies3_fig6; Pvl_sec5; Pnoise_sec3; Opt_lowpass ]

let kernel_name = function
  | Hb2_fig1 -> "hb2_fig1"
  | Mmft_fig4 -> "mmft_fig4"
  | Ies3_fig6 -> "ies3_fig6"
  | Pvl_sec5 -> "pvl_sec5"
  | Pnoise_sec3 -> "pnoise_sec3"
  | Opt_lowpass -> "opt_lowpass"

(* the six kernels in a seeded order for round [round] *)
let kernel_round ~seed ~round = shuffle (rng seed (Printf.sprintf "kernels-%d" round)) all_kernels

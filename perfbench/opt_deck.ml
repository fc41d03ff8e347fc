(* The lowpass mask synthesis of bench/exp_opt.ml: Nelder-Mead over
   (R1, C2) until the passband/stopband spec is met. *)

open Rfkit

let text =
  "* perfbench optimize deck: RC lowpass synthesized to a mask\n\
   .param R1=1k\n\
   .param C2=1n\n\
   V1 in 0 DC 0\n\
   R1 in out {R1}\n\
   C2 out 0 {C2}\n\
   .end\n"

let analysis = Batch.Spec.Ac { f_start = 1e3; f_stop = 1e8; points_per_decade = 10 }
let spec = Opt.Spec.of_strings [ "gain_db@1e4>=-1"; "stopband@1e7..1e8>=30" ]
let vars = [ Opt.Loop.parse_var "R1=100:10k"; Opt.Loop.parse_var "C2=100p:10n" ]

let config =
  {
    Batch.Runner.deck_text = text;
    node = "out";
    domains = 1;
    budget = None;
    tol_scale = 1.0;
    ordering = Rfkit_struct.Order.Natural;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

let options = { Opt.Optim.default_options with max_evals = 100 }

(* jobs of the same deck for the layer probes *)
let probe_jobs =
  List.init 8 (fun i ->
      {
        Batch.Expand.id = i;
        corner = "opt";
        params = [ ("C2", 1e-10 *. float_of_int (i + 1)); ("R1", 500.0 *. float_of_int (i + 1)) ];
        analysis;
      })

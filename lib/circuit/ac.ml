open Rfkit_la

type result = { freqs : float array; response : Cvec.t array }

let system_op c x_op freq =
  let g = Mna.jac_g_sparse c x_op and cm = Mna.jac_c_sparse c x_op in
  let w = 2.0 *. Float.pi *. freq in
  Cop.add (Cop.of_real g) (Cop.scale (Cx.im w) (Cop.of_real cm))

(* the same system lowered to CSR: [system_op] is Sum(Sparse, Scaled
   Sparse), which always folds, so the Option.get cannot fail *)
let system_sparse c x_op freq =
  Option.get (Cop.to_sparse_opt (system_op c x_op freq))

let system_at c x_op freq = Csparse.to_dense (system_sparse c x_op freq)

(* G and C at the operating point, stamped once per sweep: every
   frequency shares them and the circuit's union pattern, so a point only
   combines G + j omega C per entry — with [system_sparse]'s exact
   arithmetic, entry for entry — on index arrays that are physically the
   same at every frequency. *)
type stamps = { gc : Mna.gc_pattern; g : float array; cm : float array; n : int }

let stamp c x_op =
  let _, _, g = Sparse.csr (Mna.jac_g_sparse c x_op)
  and _, _, cm = Sparse.csr (Mna.jac_c_sparse c x_op) in
  { gc = Mna.gc_pattern c; g; cm; n = Mna.size c }

(* per entry: Cx.re g +: (Cx.im w *: Cx.re c), or the one operand
   present, with Complex.add/mul spelled out so only the result is boxed *)
let system_of_stamps st freq =
  let w = 2.0 *. Float.pi *. freq in
  let u = st.gc in
  let m = Array.length u.Mna.col_idx in
  let values = Array.make m Cx.zero in
  for k = 0 to m - 1 do
    let gi = u.Mna.g_slot.(k) and ci = u.Mna.c_slot.(k) in
    values.(k) <-
      (if ci < 0 then { Cx.re = st.g.(gi); im = 0.0 }
       else begin
         let c = st.cm.(ci) in
         let pr = (0.0 *. c) -. (w *. 0.0) and pi = (0.0 *. 0.0) +. (w *. c) in
         if gi < 0 then { Cx.re = pr; im = pi }
         else { Cx.re = st.g.(gi) +. pr; im = 0.0 +. pi }
       end)
  done;
  Csparse.of_csr ~rows:st.n ~cols:st.n ~row_ptr:u.Mna.row_ptr
    ~col_idx:u.Mna.col_idx ~values

(* Every frequency of a sweep stamps the same structural pattern (only
   the j omega scaling of the C entries moves), so one symbolic analysis
   serves the whole sweep: the first point runs the pivoting pass, later
   points are KLU-style refactors. The circuit's fill-reducing ordering
   (pattern-only, hence shared with the real-valued engines) is folded
   into the cached plan. *)
let factor_at ?cache c st freq =
  let perm = Mna.ordering_perm c in
  let m = system_of_stamps st freq in
  match cache with
  | Some cache -> Csparse_lu.factor_cached ?perm cache m
  | None -> Csparse_lu.factor ?perm m

let op ?x_op c = match x_op with Some v -> v | None -> Dc.solve c

let sweep ?x_op c ~source ~freqs =
  let st = stamp c (op ?x_op c) in
  let b = Cvec.of_real (Mna.source_pattern c source) in
  let cache = ref None in
  let response =
    Array.map (fun f -> Csparse_lu.solve (factor_at ~cache c st f) b) freqs
  in
  { freqs; response }

let transfer c res name =
  let idx = Mna.node c name in
  Array.map (fun x -> x.(idx)) res.response

let solve_at ?x_op c ~rhs ~freq =
  Csparse_lu.solve (factor_at c (stamp c (op ?x_op c)) freq) (Cvec.of_real rhs)

(* the output noise PSD as a function of frequency: stamps, generator
   patterns and the symbolic cache are built once; each frequency sums
   every generator's transfer through the shared factor, weighted by its
   spectral density *)
let noise_psd ?x_op c ~node =
  let x0 = op ?x_op c in
  let idx = Mna.node c node in
  let sources = Mna.noise_sources c in
  let patterns = Array.map (fun src -> Cvec.of_real (Mna.noise_pattern c src)) sources in
  let st = stamp c x0 and cache = ref None in
  fun f ->
    let lufact = factor_at ~cache c st f in
    let acc = ref 0.0 in
    Array.iteri
      (fun k (src : Device.noise_source) ->
        let h = Csparse_lu.solve lufact patterns.(k) in
        let flicker =
          if src.Device.flicker_corner > 0.0 && f > 0.0 then
            1.0 +. (src.Device.flicker_corner /. f)
          else 1.0
        in
        acc := !acc +. (Cx.abs2 h.(idx) *. src.Device.psd_at x0 *. flicker))
      sources;
    !acc

let output_noise ?x_op c ~node ~freqs = Array.map (noise_psd ?x_op c ~node) freqs

(* Supervised variants: AC is a chain of direct linearized solves, so
   the only ladder rung is Base — but running under the supervisor gives
   the sweep runner (and the service) typed outcomes for the two ways a
   linear sweep can still die: a singular linearized system and a
   SIGINT/deadline poll between frequencies. One poll per frequency
   bounds the abort latency at a single factor+solve. *)
module Supervisor = Rfkit_solve.Supervisor
module Deadline = Rfkit_solve.Deadline

let supervised ~engine body =
  Supervisor.run ~engine
    ~ladder:[ Supervisor.Base ]
    ~attempt:(fun _ ~iter_cap:_ ->
      match body () with
      | value, polls ->
          Ok
            ( value,
              { Supervisor.iterations = polls; residual = 0.0;
                krylov_iterations = 0 } )
      | exception Clu.Singular ->
          Error (Supervisor.Singular_jacobian, Supervisor.no_stats)
      | exception Sparse_lu.Singular ->
          Error (Supervisor.Singular_jacobian, Supervisor.no_stats))
    ()

let sweep_outcome ?x_op c ~source ~freqs =
  supervised ~engine:"ac" (fun () ->
      let st = stamp c (op ?x_op c) in
      let b = Cvec.of_real (Mna.source_pattern c source) in
      let cache = ref None in
      let response =
        Array.map
          (fun f ->
            Deadline.check ();
            Csparse_lu.solve (factor_at ~cache c st f) b)
          freqs
      in
      ({ freqs; response }, Array.length freqs))

let output_noise_outcome ?x_op c ~node ~freqs =
  supervised ~engine:"ac-noise" (fun () ->
      let psd_at = noise_psd ?x_op c ~node in
      let psd =
        Array.map
          (fun f ->
            Deadline.check ();
            psd_at f)
          freqs
      in
      (psd, Array.length freqs))

let two_port_z ?x_op c ~port1 ~port2 ~freq =
  let lufact = factor_at c (stamp c (op ?x_op c)) freq in
  let node1, src1 = port1 and node2, src2 = port2 in
  let i1 = Mna.node c node1 and i2 = Mna.node c node2 in
  let z = Cmat.make 2 2 in
  List.iteri
    (fun col src ->
      let v = Csparse_lu.solve lufact (Cvec.of_real (Mna.source_pattern c src)) in
      Cmat.set z 0 col v.(i1);
      Cmat.set z 1 col v.(i2))
    [ src1; src2 ];
  z

let log_freqs ~f_start ~f_stop ~points_per_decade =
  if f_start <= 0.0 || f_stop <= f_start then invalid_arg "Ac.log_freqs";
  let decades = log10 (f_stop /. f_start) in
  let n = max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int points_per_decade))) in
  Array.init n (fun i ->
      f_start *. (10.0 ** (decades *. float_of_int i /. float_of_int (n - 1))))

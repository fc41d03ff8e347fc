open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

type linear_solver = Direct | Matrix_free_gmres

type options = {
  n_samples : int;
  max_newton : int;
  tol : float;
  solver : linear_solver;
  warm_periods : int;
  gmres_tol : float;
  precondition : bool;
}

let default_options =
  {
    n_samples = 32;
    max_newton = 60;
    tol = 1e-9;
    solver = Direct;
    warm_periods = 2;
    gmres_tol = 1e-12;
    precondition = true;
  }

type result = {
  circuit : Mna.t;
  freq : float;
  times : Vec.t;
  samples : Mat.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

exception No_convergence = Error.No_convergence

let engine = "hb"

(* the one-tone preset of the shared engine: sources evaluated in time *)
let problem c ~freq ~n_samples =
  Hb_core.make ~engine c ~tones:[| freq |] ~dims:[| n_samples |] ~excite:(fun ts ->
      Mna.eval_b c ts.(0))

let residual_norm c ~freq (x : Mat.t) =
  Vec.norm_inf (Hb_core.residual (problem c ~freq ~n_samples:x.Mat.rows) x.Mat.a)

(* integrate a few periods of transient, then sample the last one *)
let transient_guess c ~period ~ns ~periods =
  let n = Mna.size c in
  let res =
    Tran.run ~method_:Tran.Backward_euler c
      ~t_stop:(float_of_int periods *. period)
      ~dt:(period /. float_of_int ns)
  in
  let t_end = res.Tran.times.(Array.length res.Tran.times - 1) in
  let columns = Array.init n (fun i -> Array.map (fun st -> st.(i)) res.Tran.states) in
  let times = Grid.times ~period ~n:ns in
  Vec.init (ns * n) (fun idx ->
      let t = t_end -. period +. times.(idx / n) in
      Interp.linear res.Tran.times columns.(idx mod n) (Float.max 0.0 t))

let initial_guess ?(x0 : Mat.t option) p c ~options ~freq =
  match x0 with
  | Some m -> Array.copy m.Mat.a
  | None when options.warm_periods > 0 ->
      let ns = options.n_samples in
      Hb_core.guarded_start
        ~fallback:(fun () -> Vec.create (ns * Mna.size c))
        (fun () ->
          transient_guess c ~period:(1.0 /. freq) ~ns ~periods:options.warm_periods)
  | None -> Hb_core.dc_start p

let solve_outcome ?budget ?(options = default_options) ?x0 c ~freq =
  Hb_core.supervise ?budget ~engine c
    ~ladder:
      [
        Supervisor.Base;
        Supervisor.Tighten_damping (Hb_core.default_damping /. 4.0);
        Supervisor.Warm_start (4 * max 1 options.warm_periods);
        Supervisor.Escalate_samples 2;
      ]
    ~attempt:(fun strategy ~iter_cap ->
      let options =
        match strategy with
        | Supervisor.Warm_start p -> { options with warm_periods = p }
        | Supervisor.Escalate_samples f ->
            { options with n_samples = options.n_samples * f }
        | _ -> options
      in
      (* a user-supplied x0 pins the sample count: escalation re-runs base *)
      let ns = match x0 with Some (m : Mat.t) -> m.Mat.rows | None -> options.n_samples in
      let options = { options with n_samples = ns } in
      let p = problem c ~freq ~n_samples:ns in
      let settings =
        {
          Hb_core.max_newton = options.max_newton;
          tol = options.tol;
          gmres_tol = options.gmres_tol;
          direct = options.solver = Direct;
          precondition = options.precondition;
        }
      in
      Hb_core.newton p settings ~damping:(Hb_core.damping_of strategy) ~iter_cap
        (initial_guess ?x0 p c ~options ~freq)
      |> Result.map (fun (x, (st : Supervisor.stats)) ->
             ( {
                 circuit = c;
                 freq;
                 times = Grid.times ~period:(1.0 /. freq) ~n:ns;
                 samples = { Mat.rows = ns; cols = Mna.size c; a = x };
                 newton_iters = st.iterations;
                 residual = st.residual;
                 gmres_iters_total = st.krylov_iterations;
               },
               st )))

let solve ?options ?x0 c ~freq =
  match solve_outcome ?options ?x0 c ~freq with
  | Supervisor.Converged (res, _) -> res
  | Supervisor.Failed f -> Error.raise_failure ~engine f

let waveform res name =
  let idx = Mna.node res.circuit name in
  Mat.col res.samples idx

let harmonic_amplitude res name k = Grid.amplitude (waveform res name) k

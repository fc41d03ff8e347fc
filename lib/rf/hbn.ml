open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "hbn"

type options = {
  dims : int array;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

let default_dims ~n_tones = Array.make n_tones 8

type result = {
  circuit : Mna.t;
  tones : float array;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

let solve_outcome ?budget ?options c ~tones =
  let options =
    match options with
    | Some o -> o
    | None ->
        {
          dims = default_dims ~n_tones:(Array.length tones);
          max_newton = 60;
          tol = 1e-9;
          gmres_tol = 1e-12;
        }
  in
  if Array.length options.dims <> Array.length tones then
    invalid_arg "Hbn.solve: dims and tones length mismatch";
  Hb_core.multitone ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Tighten_damping (Hb_core.default_damping /. 4.0) ]
    ~max_newton:options.max_newton ~tol:options.tol ~gmres_tol:options.gmres_tol c ~tones
    ~dims:options.dims (fun grid (st : Supervisor.stats) ->
      {
        circuit = c;
        tones;
        options;
        grid;
        newton_iters = st.iterations;
        residual = st.residual;
        gmres_iters_total = st.krylov_iterations;
      })

let solve ?options c ~tones =
  match solve_outcome ?options c ~tones with
  | Supervisor.Converged (res, _) -> res
  | Supervisor.Failed f -> Error.raise_failure ~engine f

let mix_amplitude res name k_vec =
  let dims = res.options.dims in
  let spec = Hb_core.spectrum res.circuit ~dims res.grid name in
  Hb_core.amplitude ~dc:(Array.for_all (fun k -> k = 0) k_vec) spec.(Hb_core.bin dims k_vec)

let problem_size c ~dims = Hb_core.total dims * Mna.size c

let memory_estimate c ~dims =
  let n = Mna.size c in
  let tot = Hb_core.total dims in
  (* ~6 live grid-sized vectors in the Newton/GMRES loop, the per-point
     Jacobian blocks, and the complex preconditioner factors — one per ±m
     bin pair, so about tot/2 of them *)
  let grid_vectors = 8 * tot * n * 6 in
  let jac_blocks = 8 * tot * n * n * 2 in
  let precond = 8 * tot * n * n in
  grid_vectors + jac_blocks + precond

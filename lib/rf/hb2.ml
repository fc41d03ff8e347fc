open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "hb2"

type options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

let default_options =
  { n1 = 8; n2 = 16; max_newton = 60; tol = 1e-9; gmres_tol = 1e-12 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

let solve_outcome ?budget ?(options = default_options) c ~f1 ~f2 =
  Hb_core.multitone ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Tighten_damping (Hb_core.default_damping /. 4.0) ]
    ~max_newton:options.max_newton ~tol:options.tol ~gmres_tol:options.gmres_tol c
    ~tones:[| f1; f2 |] ~dims:[| options.n1; options.n2 |]
    (fun grid (st : Supervisor.stats) ->
      {
        circuit = c;
        f1;
        f2;
        options;
        grid;
        newton_iters = st.iterations;
        residual = st.residual;
        gmres_iters_total = st.krylov_iterations;
      })

let solve ?options c ~f1 ~f2 =
  match solve_outcome ?options c ~f1 ~f2 with
  | Supervisor.Converged (res, _) -> res
  | Supervisor.Failed f -> Error.raise_failure ~engine f

let node_grid res name =
  let { n1; n2; _ } = res.options in
  let n = Mna.size res.circuit in
  let k = Mna.node res.circuit name in
  Mat.init n1 n2 (fun i1 i2 -> res.grid.((((i1 * n2) + i2) * n) + k))

let line_spectrum res name =
  let dims = [| res.options.n1; res.options.n2 |] in
  (dims, Hb_core.spectrum res.circuit ~dims res.grid name)

let mix_amplitude res name ~k1 ~k2 =
  let dims, spec = line_spectrum res name in
  Hb_core.amplitude ~dc:(k1 = 0 && k2 = 0) spec.(Hb_core.bin dims [| k1; k2 |])

type spur = { k1 : int; k2 : int; freq : float; amplitude : float }

let spectrum res name =
  let { n1; n2; _ } = res.options in
  let _, spec = line_spectrum res name in
  let out = ref [] in
  Array.iteri
    (fun bin c ->
      let k1 = Hb_core.signed_bin (bin / n2) n1
      and k2 = Hb_core.signed_bin (bin mod n2) n2 in
      let freq = (float_of_int k1 *. res.f1) +. (float_of_int k2 *. res.f2) in
      let amplitude = Hb_core.amplitude ~dc:(k1 = 0 && k2 = 0) c in
      if freq >= 0.0 && amplitude > 1e-16 then out := { k1; k2; freq; amplitude } :: !out)
    spec;
  List.sort (fun a b -> compare a.freq b.freq) !out

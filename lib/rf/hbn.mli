(** General n-tone quasi-periodic harmonic balance.

    The d-dimensional generalization of {!Hb2}: collocation on an
    [n_1 x ... x n_d] grid over the torus of tone phases, spectral
    differentiation applied axis by axis, Newton with matrix-implicit
    GMRES and a block-diagonal per-mix-bin preconditioner, factored once
    per ±m bin pair. Its collocation core is the only harmonic-balance
    implementation: {!Hb} and {!Hb2} are its one- and two-tone presets.

    This engine exists chiefly to quantify the paper's Section 2.1
    caveat: "the memory and time required for Harmonic Balance simulation
    increase rapidly as more tones are added ... predicting the
    intermodulation distortion of the entire modulator chain would
    require ... four tones; such a simulation would probably exceed
    available memory" — while "the time and memory requirements of
    transient simulation are not sensitive to the number of fundamental
    frequencies". {!problem_size} and {!memory_estimate} expose the
    scaling, and the harness sweeps the tone count. *)

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. A
    dims/tones length mismatch still raises [Invalid_argument]. *)

type options = {
  dims : int array;    (** samples per tone axis *)
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

val default_dims : n_tones:int -> int array
(** 8 samples per axis. *)

type result = {
  circuit : Rfkit_circuit.Mna.t;
  tones : float array;
  options : options;
  grid : Rfkit_la.Vec.t;   (** flattened, axis-major, unknown innermost *)
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  tones:float array ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve: the structural pre-flight (zero attempts on a
    singular G+C pattern), a base attempt, then a tightened-damping
    retry. *)

val solve : ?options:options -> Rfkit_circuit.Mna.t -> tones:float array -> result
(** Exception shim over {!solve_outcome}. *)

val mix_amplitude : result -> string -> int array -> float
(** Amplitude of the line at [sum_i k_i f_i] for the signed mix vector. *)

val problem_size : Rfkit_circuit.Mna.t -> dims:int array -> int
(** Number of unknowns: [prod dims * size circuit]. *)

val memory_estimate : Rfkit_circuit.Mna.t -> dims:int array -> int
(** Bytes for the dominant state: grid vectors, per-point Jacobian
    blocks and the complex preconditioner factors (one per ±m bin pair)
    — the quantity that "would probably exceed available memory" at four
    tones. *)

(** Single-tone harmonic balance.

    Pseudospectral (collocation) formulation: the unknowns are [n_samples]
    uniform time samples of every circuit variable over one period; the
    steady-state equations

    {v D q(X) + f(X) = B v}

    use the exact spectral differentiation operator [D], making the method
    equivalent to classical harmonic balance while letting [q], [f] be
    evaluated pointwise in time. Newton's method solves the collocation
    system; the linear solves are either direct (dense, small circuits) or
    {b matrix-implicit GMRES with a block-diagonal per-harmonic complex
    preconditioner} — the scalable scheme the paper credits for making HB
    viable on full RF ICs ([10, 31] in the text). {!default_options} keeps
    [Direct], but the PSS cascade ({!Pss.default_chain}), batch hb jobs
    and [rfsim hb] all use GMRES; the dense path runs only when a caller
    asks for [Direct], e.g. as the reference in tests and ablations.

    This is the one-tone preset of the collocation core shared with
    {!Hb2} and {!Hbn}; it alone reaches the dense direct solver, the
    transient warm start and the preconditioner toggle. *)

type linear_solver = Direct | Matrix_free_gmres

type options = {
  n_samples : int;        (** time samples per period (power of 2 advised) *)
  max_newton : int;
  tol : float;            (** residual infinity-norm target *)
  solver : linear_solver;
  warm_periods : int;     (** transient periods integrated for the initial
                              guess; 0 starts from DC *)
  gmres_tol : float;
  precondition : bool;    (** disable only for ablation studies: unpreconditioned
                              GMRES on the HB Jacobian converges far slower *)
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  freq : float;
  times : Rfkit_la.Vec.t;
  samples : Rfkit_la.Mat.t;   (** [n_samples] x [size]: waveforms by column *)
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. *)

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  ?x0:Rfkit_la.Mat.t ->
  Rfkit_circuit.Mna.t ->
  freq:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve. A structural pre-flight on the G+C union pattern
    first rejects a singular circuit with zero attempts spent
    ({!Rfkit_solve.Supervisor.Structurally_singular}). Retry ladder:
    base, tightened Newton damping, longer transient warm-start, then
    doubled sample count (skipped when [x0] pins the grid). GMRES
    iteration totals surface in the report's [krylov_iterations]. *)

val solve :
  ?options:options -> ?x0:Rfkit_la.Mat.t -> Rfkit_circuit.Mna.t -> freq:float -> result
(** Periodic steady state at fundamental [freq]. [x0] optionally seeds the
    sample matrix (e.g. from a coarser run). Exception shim over
    {!solve_outcome}. *)

val waveform : result -> string -> Rfkit_la.Vec.t
(** One period of a node voltage. *)

val harmonic_amplitude : result -> string -> int -> float
(** Amplitude of harmonic [k] of a node voltage. *)

val residual_norm : Rfkit_circuit.Mna.t -> freq:float -> Rfkit_la.Mat.t -> float
(** Infinity norm of the HB residual for a given sample matrix (testing
    and cross-validation against other engines). *)

(** Deterministic gradient-free minimizers over a box.

    Nelder-Mead and compass pattern search: value-only methods for
    objectives where every evaluation is a circuit simulation and the
    penalty surface has constraint kinks. Both are pure float
    arithmetic over a fixed visit order — no RNG, no wall clock — so
    the sequence of evaluated points (and everything keyed on it: the
    optimize trace, the sweep-cache keys) is byte-reproducible run
    over run. Candidate points are clipped into [[lo, hi]] before
    evaluation: the objective is never called outside the box.

    Outcomes are typed in the {!Rfkit_solve.Supervisor} style. *)

type reason =
  | Converged
      (** the termination tolerance was met with a finite, settled
          objective — or [stop_when] declared the goal attained *)
  | Stalled
      (** the search collapsed below [tol_x] without a finite or
          settled objective (e.g. every evaluated point infeasible) *)
  | Budget_exhausted  (** [max_evals] ran out first *)

val reason_to_string : reason -> string

type options = {
  max_evals : int;  (** hard evaluation budget *)
  tol_x : float;  (** relative (to box width) simplex/step tolerance *)
  tol_f : float;  (** relative objective-spread tolerance (Nelder-Mead) *)
  init_step : float;  (** initial simplex/pattern step, fraction of box *)
}

val default_options : options
(** [{ max_evals = 200; tol_x = 1e-3; tol_f = 1e-9; init_step = 0.25 }] *)

type result = {
  best_x : float array;
  best_f : float;
  evaluations : int;
  iterations : int;
  reason : reason;
}

val nelder_mead :
  ?options:options ->
  ?stop_when:(float -> bool) ->
  lo:float array ->
  hi:float array ->
  f:(float array -> float) ->
  float array ->
  result
(** [nelder_mead ~lo ~hi ~f x0]: downhill simplex with box clipping.
    The initial simplex steps each axis away from the nearer wall so
    clipping cannot collapse it. A settled simplex (collapsed in x, or
    with its objective spread below [tol_f]) is rebuilt around the best
    vertex, and [Converged] is reported only once such a restart no
    longer improves the best value by more than [tol_f] (relative):
    this catches a simplex collapsed onto a clipped wall or spread along
    one level set short of the minimum. [stop_when] is called on every new
    best value; returning [true] stops immediately with [Converged]
    (the spec-met early exit). NaN objective values are treated as
    [+inf]. Raises [Invalid_argument] unless [lo < hi] componentwise. *)

val pattern_search :
  ?options:options ->
  ?stop_when:(float -> bool) ->
  lo:float array ->
  hi:float array ->
  f:(float array -> float) ->
  float array ->
  result
(** Compass/coordinate search: poll axes in order ([+] then [-]),
    first improvement moves the center, a full poll without improvement
    halves every step; terminates when the largest relative step drops
    below [tol_x]. Same conventions as {!nelder_mead}. *)

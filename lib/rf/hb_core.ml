(* The one harmonic-balance engine behind Hb (one tone), Hb2 (two tones)
   and Hbn (any number of tones).

   Pseudospectral collocation on a d-dimensional grid over the torus of
   tone phases: the unknowns are the circuit variables at every grid
   point, flattened row-major with the unknown innermost
   ([(point * n) + k]), and the steady-state equations are

     (D_1 + ... + D_d) q(X) + f(X) = B

   with each D_a the exact spectral derivative along tone axis a. Newton's
   method solves the collocation system; each linear solve is either the
   dense block Jacobian (small one-tone circuits) or matrix-implicit GMRES
   with a block-diagonal per-mix-bin complex preconditioner
   P_m = G_avg + j w_m C_avg — the paper's scalable HB (Sec 2, Fig 1).

   The presets supply what differs between them: the initial grid, the
   per-point excitation, the solver settings and the supervisor ladder. *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

(* ---------------------------------------------------------------- grids *)

let total dims = Array.fold_left ( * ) 1 dims

(* per-axis indices of a flat grid position (axis 0 slowest) *)
let multi_index dims flat =
  let m = Array.make (Array.length dims) 0 in
  let rest = ref flat in
  for a = Array.length dims - 1 downto 0 do
    m.(a) <- !rest mod dims.(a);
    rest := !rest / dims.(a)
  done;
  m

let flat_index dims m =
  let flat = ref 0 in
  Array.iteri (fun a k -> flat := (!flat * dims.(a)) + k) m;
  !flat

let signed_bin k n = if k <= n / 2 then k else k - n

(* flat bin of a signed mix vector (negative indices wrap) *)
let bin dims ks =
  flat_index dims (Array.mapi (fun a k -> ((k mod dims.(a)) + dims.(a)) mod dims.(a)) ks)

(* apply [f] to every line of [field] along axis [a], in place *)
let map_lines dims a f field =
  let n_a = dims.(a) in
  let s = total (Array.sub dims (a + 1) (Array.length dims - a - 1)) in
  for l = 0 to (total dims / n_a) - 1 do
    let base = ((l / s) * s * n_a) + (l mod s) in
    let line = f (Array.init n_a (fun i -> field.(base + (i * s)))) in
    Array.iteri (fun i v -> field.(base + (i * s)) <- v) line
  done

let fftn dims field =
  let f = Cvec.of_real field in
  Array.iteri (fun a _ -> map_lines dims a Fft.forward f) dims;
  f

let ifftn_real dims spec =
  let f = Cvec.copy spec in
  Array.iteri (fun a _ -> map_lines dims a Fft.inverse f) dims;
  Cvec.real f

type problem = {
  engine : string;
  circuit : Mna.t;
  dims : int array;
  periods : float array;  (** one per tone axis *)
  b : Vec.t array;  (** excitation B at every grid point *)
  omegas : float array;  (** angular frequency of every mix bin *)
  mirrors : int array;  (** flat bin of -m for every bin m *)
}

let make ~engine circuit ~tones ~dims ~excite =
  let periods = Array.map (fun f -> 1.0 /. f) tones in
  let axis_times = Array.mapi (fun a n -> Grid.times ~period:periods.(a) ~n) dims in
  let tot = total dims in
  (* B does not depend on the iterate: evaluate it once per solve *)
  let b =
    Array.init tot (fun flat ->
        excite (Array.mapi (fun a k -> axis_times.(a).(k)) (multi_index dims flat)))
  in
  (* bin frequencies, with each axis' unpaired even-grid Nyquist index
     zeroed as in the spectral derivative *)
  let omegas =
    Array.init tot (fun flat ->
        let w = ref 0.0 in
        Array.iteri
          (fun a k ->
            let n = dims.(a) in
            if not (n mod 2 = 0 && k = n / 2) then
              w := !w +. (2.0 *. Float.pi *. tones.(a) *. float_of_int (signed_bin k n)))
          (multi_index dims flat);
        !w)
  in
  let mirrors =
    Array.init tot (fun flat -> bin dims (Array.map (fun k -> -k) (multi_index dims flat)))
  in
  { engine; circuit; dims; periods; b; omegas; mirrors }

(* spectral application of sum_a d/dt_a to one unknown's field: Grid's
   one-axis derivative along every tone axis *)
let diff p field =
  let out = Vec.create (Array.length field) in
  Array.iteri
    (fun a period ->
      let g = Array.copy field in
      map_lines p.dims a (Grid.diff_samples ~period) g;
      Vec.add_inplace g out)
    p.periods;
  out

(* -------------------------------------------------------------- assembly *)

let point ~n (x : Vec.t) flat = Array.sub x (flat * n) n

(* [D q + g] from per-point (charge-like, conductive) terms *)
let collocate p terms =
  let n = Mna.size p.circuit and tot = total p.dims in
  let q = Vec.create (tot * n) and out = Vec.create (tot * n) in
  for flat = 0 to tot - 1 do
    let qp, gp = terms flat in
    Array.blit qp 0 q (flat * n) n;
    Array.blit gp 0 out (flat * n) n
  done;
  for k = 0 to n - 1 do
    let dq = diff p (Vec.init tot (fun flat -> q.((flat * n) + k))) in
    Array.iteri (fun flat v -> out.((flat * n) + k) <- out.((flat * n) + k) +. v) dq
  done;
  out

(* R(X) = D q(X) + f(X) - B *)
let residual p x =
  let c = p.circuit and n = Mna.size p.circuit in
  collocate p (fun flat ->
      let xp = point ~n x flat in
      (Mna.eval_q c xp, Vec.sub (Mna.eval_f c xp) p.b.(flat)))

(* per-point sparse linearizations C_p, G_p — the only matrices the HB
   Jacobian is ever built from, computed once per Newton iteration *)
let jacobians p x =
  let c = p.circuit and n = Mna.size p.circuit in
  let tot = total p.dims in
  ( Array.init tot (fun flat -> Mna.jac_c_sparse c (point ~n x flat)),
    Array.init tot (fun flat -> Mna.jac_g_sparse c (point ~n x flat)) )

(* matrix-implicit J v: two sparse matvecs per point plus one spectral
   derivative per unknown *)
let apply_jacobian p ~cs ~gs v =
  let n = Mna.size p.circuit in
  collocate p (fun flat ->
      let vp = point ~n v flat in
      (Sparse.matvec cs.(flat) vp, Sparse.matvec gs.(flat) vp))

(* the dense derivative operator, column by column from [diff] *)
let dense_diff p =
  let tot = total p.dims in
  Array.init tot (fun j -> diff p (Vec.init tot (fun i -> if i = j then 1.0 else 0.0)))

(* dense J[(p,i),(p',j)] = D[p,p'] C_p'[i,j] + delta_pp' G_p[i,j]; small
   one-tone circuits only *)
let dense_jacobian p ~d ~cs ~gs =
  let n = Mna.size p.circuit and tot = total p.dims in
  let jm = Mat.make (tot * n) (tot * n) in
  for p' = 0 to tot - 1 do
    Sparse.iter
      (fun i j v ->
        Array.iteri
          (fun s dss ->
            if dss <> 0.0 then
              Mat.update jm ((s * n) + i) ((p' * n) + j) (fun w -> w +. (dss *. v)))
          d.(p'))
      cs.(p');
    Sparse.iter
      (fun i j v -> Mat.update jm ((p' * n) + i) ((p' * n) + j) (fun w -> w +. v))
      gs.(p')
  done;
  jm

(* point-averaged sparse stamps: every point shares the cached MNA
   pattern, so the merge never grows beyond the union pattern *)
let average_sparse arr =
  let acc = ref arr.(0) in
  for s = 1 to Array.length arr - 1 do
    acc := Sparse.add !acc arr.(s)
  done;
  Sparse.scale (1.0 /. float_of_int (Array.length arr)) !acc

(* block-diagonal per-bin preconditioner P_m = G_avg + j w_m C_avg, each
   block a Csparse factored by the complex Gilbert-Peierls LU. A real
   problem has P_{-m} = conj(P_m) and conjugate-symmetric spectra, so one
   bin per ±m pair is factored and its partner's solve mirrored. All
   blocks share the G+C union pattern (Csparse.scale keeps explicit
   entries at w = 0), so the caller-held symbolic [cache] is analyzed
   once and every other bin of every Newton iteration is a pivot-frozen
   refactor. [perm] is the circuit's fill-reducing order. *)
let preconditioner p ~perm ~cache ~cs ~gs =
  let n = Mna.size p.circuit and tot = total p.dims in
  let c_avg = Csparse.of_real (average_sparse cs) in
  let g_avg = Csparse.of_real (average_sparse gs) in
  let factors =
    Array.init tot (fun m ->
        if p.mirrors.(m) < m then None
        else
          let block = Csparse.add g_avg (Csparse.scale (Cx.im p.omegas.(m)) c_avg) in
          Some (Csparse_lu.factor_cached ?perm cache block))
  in
  fun (v : Vec.t) ->
    let specs =
      Array.init n (fun k -> fftn p.dims (Vec.init tot (fun m -> v.((m * n) + k))))
    in
    let solved = Array.make tot [||] in
    Array.iteri
      (fun m f ->
        Option.iter
          (fun lu ->
            solved.(m) <- Csparse_lu.solve lu (Cvec.init n (fun k -> specs.(k).(m))))
          f)
      factors;
    Array.iteri
      (fun m f ->
        if Option.is_none f then solved.(m) <- Cvec.map Cx.conj solved.(p.mirrors.(m)))
      factors;
    let out = Vec.create (tot * n) in
    for k = 0 to n - 1 do
      let field = ifftn_real p.dims (Cvec.init tot (fun m -> solved.(m).(k))) in
      Array.iteri (fun m v -> out.((m * n) + k) <- v) field
    done;
    out

(* ---------------------------------------------------------------- solve *)

type settings = {
  max_newton : int;
  tol : float;
  gmres_tol : float;
  direct : bool;  (** dense LU instead of GMRES (one-tone [Direct] only) *)
  precondition : bool;
}

let default_damping = 5.0

let damping_of = function
  | Supervisor.Tighten_damping d -> d
  | _ -> default_damping

(* run an initial-guess computation; an ordinary failure falls back to
   [fallback], but a typed interrupt/deadline abort must not degrade into
   a cold start: re-raise so the supervisor records the cause *)
let guarded_start ~fallback start =
  try start () with
  | Error.No_convergence { Error.cause = Supervisor.Interrupted; _ } ->
      raise Deadline.Interrupted
  | Error.No_convergence
      { Error.cause = Supervisor.Deadline_exceeded { seconds }; _ } ->
      raise (Deadline.Expired seconds)
  | Error.No_convergence _ | Tran.Step_failed _ -> fallback ()

(* every grid point at the DC operating point (zero if DC fails) *)
let dc_start p =
  let n = Mna.size p.circuit in
  let xdc =
    guarded_start ~fallback:(fun () -> Vec.create n) (fun () -> Dc.solve p.circuit)
  in
  Vec.init (total p.dims * n) (fun i -> xdc.(i mod n))

(* damped Newton from [x] (updated in place); [Ok] carries the converged
   grid *)
let newton p s ~damping ~iter_cap x =
  let engine = p.engine in
  (* one symbolic plan for every preconditioner block of every Newton
     iteration: the bin blocks all share the G+C union pattern *)
  let perm = Mna.ordering_perm p.circuit in
  let cache = ref None in
  let d = lazy (dense_diff p) in
  let iters = ref 0 and krylov = ref 0 in
  let res_norm = ref infinity and converged = ref false in
  let stats () =
    { Supervisor.iterations = !iters; residual = !res_norm; krylov_iterations = !krylov }
  in
  let cap = min s.max_newton iter_cap in
  try
    while (not !converged) && !iters < cap do
      incr iters;
      let r = residual p x in
      res_norm := Vec.norm_inf r;
      if !res_norm <= s.tol then converged := true
      else begin
        if Faults.singular_now ~engine then raise Lu.Singular;
        let cs, gs = jacobians p x in
        let dx =
          if s.direct then
            Lu.solve (Lu.factor (dense_jacobian p ~d:(Lazy.force d) ~cs ~gs)) r
          else begin
            let precond =
              if s.precondition then preconditioner p ~perm ~cache ~cs ~gs else Fun.id
            in
            let dx, st =
              Krylov.gmres ~m:100 ~tol:s.gmres_tol ~max_iter:4000 ~precond
                (apply_jacobian p ~cs ~gs) r
            in
            krylov := !krylov + st.Krylov.iterations;
            if (not st.Krylov.converged) || Faults.krylov_stall_now ~engine then
              Error.fail ~engine
                ~cause:
                  (Supervisor.Krylov_stall
                     { iterations = st.Krylov.iterations; residual = st.Krylov.residual })
                "HB GMRES stalled";
            dx
          end
        in
        Guard.check ~engine ~iter:!iters dx;
        let step = Vec.norm_inf dx in
        Vec.axpy (-.(if step > damping then damping /. step else 1.0)) dx x
      end
    done;
    if !converged then Ok (x, stats ())
    else
      Error
        ( Supervisor.Newton_stall { iterations = !iters; residual = !res_norm },
          stats () )
  with
  | Lu.Singular | Clu.Singular -> Error (Supervisor.Singular_jacobian, stats ())
  | Krylov.Non_finite index ->
      Error (Supervisor.Non_finite { iter = !iters; index }, stats ())
  | Guard.Non_finite_found { iter; index } ->
      Error (Supervisor.Non_finite { iter; index }, stats ())
  | Error.No_convergence e -> Error (e.Error.cause, stats ())

(* structural pre-flight, then the preset's ladder: the HB Jacobian's
   diagonal blocks share the G+C union pattern, so a deficient matching
   dooms every tone count and grid size *)
let supervise ?budget ~engine c ~ladder ~attempt =
  let n = Mna.size c in
  let rank = Mna.structural_rank_gc c in
  if rank < n then
    Supervisor.Failed (Supervisor.structural_failure ~engine ~rank ~size:n)
  else Supervisor.run ?budget ~engine ~ladder ~attempt ()

(* the multi-tone presets: DC start, sources split across the tone axes
   by Mpde.eval_bn, preconditioned GMRES; [finish] builds the preset's
   result *)
let multitone ?budget ~engine ~ladder ~max_newton ~tol ~gmres_tol c ~tones ~dims
    finish =
  let p = make ~engine c ~tones ~dims ~excite:(Mpde.eval_bn c ~tones) in
  let s = { max_newton; tol; gmres_tol; direct = false; precondition = true } in
  supervise ?budget ~engine c ~ladder ~attempt:(fun strategy ~iter_cap ->
      newton p s ~damping:(damping_of strategy) ~iter_cap (dc_start p)
      |> Result.map (fun (x, st) -> (finish x st, st)))

(* complex line amplitudes of a node voltage over every mix bin *)
let spectrum c ~dims (grid : Vec.t) name =
  let n = Mna.size c and k = Mna.node c name and tot = total dims in
  let field = Vec.init tot (fun m -> grid.((m * n) + k)) in
  Cvec.scale_re (1.0 /. float_of_int tot) (fftn dims field)

(* one-sided amplitude of a line: the DC bin counts once *)
let amplitude ~dc (c : Cx.t) = if dc then Cx.abs c else 2.0 *. Cx.abs c

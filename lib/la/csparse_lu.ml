(* Complex left-looking (Gilbert-Peierls) sparse LU with partial pivoting
   — the complex twin of [Sparse_lu], factoring (G + j omega C) systems
   without the dense [Clu] round-trip.

   Factors L * U = P * A with the pivot row chosen greedily for the
   largest remaining magnitude (|.| = Cx.abs), exactly as in dense [Clu].
   L and U are stored column-compressed; L's unit diagonal is implicit,
   U's diagonal lives in a separate array. Row indices of L and U are in
   pivot coordinates after factorization (original rows are remapped
   through [pinv] once all pivots are known).

   Column k is eliminated by scattering A[:,k] into a dense work vector
   and applying every earlier L column whose pivot row currently holds a
   nonzero, in increasing pivot order -- a valid topological order because
   an L column only ever updates rows pivoted later. The per-column scan
   over previous pivots costs O(n) tests, negligible against the
   factorization flops for the matrix sizes circuit decks produce. *)

open Cx

exception Singular = Clu.Singular

(* Observability: how many factorizations reused a cached symbolic
   analysis vs. ran the full pivoting pass. Atomic so concurrent sweep
   domains can share the counters. These are the clu_full/clu_refactor
   fields of [rfsim --stats]. *)
let n_refactor = Atomic.make 0
let n_full = Atomic.make 0
let counts () = (Atomic.get n_refactor, Atomic.get n_full)

(* nnz(L+U) of the most recent complex factorization on this domain tree *)
let last_fill = Atomic.make 0
let fill_nnz () = Atomic.get last_fill

let reset_counts () =
  Atomic.set n_refactor 0;
  Atomic.set n_full 0;
  Atomic.set last_fill 0

(* Factor values are held as split real/imaginary float arrays, and the
   refactor and solve kernels below work on split float vectors, spelling
   out [Complex]'s arithmetic operation for operation (same operands,
   same order, so bit-identical to the [Cx] operators) without boxing a
   record per flop. *)
type t = {
  n : int;
  (* L: strictly lower triangular, unit diagonal implicit, CSC *)
  l_colptr : int array;
  l_rows : int array;
  l_re : float array;
  l_im : float array;
  (* U: strictly upper part, CSC; diagonal separate *)
  u_colptr : int array;
  u_rows : int array;
  u_re : float array;
  u_im : float array;
  d_re : float array;
  d_im : float array;
  pinv : int array; (* original row -> pivot position *)
  qperm : int array option;
      (* fill-reducing symmetric order: the factored matrix was
         [Csparse.permute_sym qperm a]; solves wrap the permutation *)
}

(* [Complex.mul] and [Complex.div], one component at a time *)
let[@inline] mul_re ar ai br bi = (ar *. br) -. (ai *. bi)
let[@inline] mul_im ar ai br bi = (ar *. bi) +. (ai *. br)

let[@inline] div_re xr xi yr yi =
  if abs_float yr >= abs_float yi then
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    (xr +. (r *. xi)) /. d
  else
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    ((r *. xr) +. xi) /. d

let[@inline] div_im xr xi yr yi =
  if abs_float yr >= abs_float yi then
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    (xi -. (r *. xr)) /. d
  else
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    ((r *. xi) -. xr) /. d

let split (a : Cx.t array) =
  let n = Array.length a in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- a.(i).re;
    im.(i) <- a.(i).im
  done;
  (re, im)

(* growable parallel (int, Cx.t) arrays *)
type buf = { mutable idx : int array; mutable va : Cx.t array; mutable len : int }

let buf_make cap =
  { idx = Array.make (max cap 16) 0; va = Array.make (max cap 16) Cx.zero; len = 0 }

let buf_push b i v =
  if b.len = Array.length b.idx then begin
    let cap = 2 * b.len in
    let idx = Array.make cap 0 and va = Array.make cap Cx.zero in
    Array.blit b.idx 0 idx 0 b.len;
    Array.blit b.va 0 va 0 b.len;
    b.idx <- idx;
    b.va <- va
  end;
  b.idx.(b.len) <- i;
  b.va.(b.len) <- v;
  b.len <- b.len + 1

let factor_core a =
  let n = Csparse.rows a in
  if Csparse.cols a <> n then invalid_arg "Csparse_lu.factor: matrix not square";
  (* CSR of a^T: row j holds column j of a *)
  let at = Csparse.transpose a in
  let at_ptr, at_rows, at_vals = Csparse.csr at in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  (* pivot position -> original row *)
  let x = Array.make n Cx.zero in
  let touched = Array.make n false in
  let touch_list = Array.make n 0 in
  let l = buf_make (4 * Csparse.nnz a) in
  let u = buf_make (4 * Csparse.nnz a) in
  let l_colptr = Array.make (n + 1) 0 in
  let u_colptr = Array.make (n + 1) 0 in
  let udiag = Array.make n Cx.zero in
  for k = 0 to n - 1 do
    (* scatter A[:,k] *)
    let nt = ref 0 in
    for p = at_ptr.(k) to at_ptr.(k + 1) - 1 do
      let i = at_rows.(p) in
      if not touched.(i) then begin
        touched.(i) <- true;
        touch_list.(!nt) <- i;
        incr nt;
        x.(i) <- at_vals.(p)
      end
      else x.(i) <- x.(i) +: at_vals.(p)
    done;
    (* eliminate with previous columns in pivot order *)
    for kp = 0 to k - 1 do
      let piv_row = prow.(kp) in
      if touched.(piv_row) && x.(piv_row) <> Cx.zero then begin
        let xv = x.(piv_row) in
        for p = l_colptr.(kp) to l_colptr.(kp + 1) - 1 do
          let r = l.idx.(p) in
          (* still original-row coordinates at this point *)
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt;
            x.(r) <- Cx.zero
          end;
          x.(r) <- x.(r) -: (l.va.(p) *: xv)
        done
      end
    done;
    (* partial pivot over unassigned rows *)
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      if pinv.(i) < 0 then begin
        let m = Cx.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    if !best < 0 || !best_abs = 0.0 then raise Singular;
    let piv = !best in
    let pv = x.(piv) in
    pinv.(piv) <- k;
    prow.(k) <- piv;
    udiag.(k) <- pv;
    (* emit U column k (assigned rows) and L column k (unassigned rows) *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      let v = x.(i) in
      if v <> Cx.zero then
        if pinv.(i) >= 0 then begin
          if i <> piv then buf_push u pinv.(i) v
        end
        else buf_push l i (v /: pv)
    done;
    l_colptr.(k + 1) <- l.len;
    u_colptr.(k + 1) <- u.len;
    (* clear work vector *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      x.(i) <- Cx.zero;
      touched.(i) <- false
    done
  done;
  (* remap L row indices to pivot coordinates *)
  let l_rows = Array.sub l.idx 0 l.len in
  for p = 0 to l.len - 1 do
    l_rows.(p) <- pinv.(l_rows.(p))
  done;
  Atomic.incr n_full;
  Atomic.set last_fill (l.len + u.len + n);
  let l_re, l_im = split (Array.sub l.va 0 l.len)
  and u_re, u_im = split (Array.sub u.va 0 u.len)
  and d_re, d_im = split udiag in
  {
    n;
    l_colptr;
    l_rows;
    l_re;
    l_im;
    u_colptr;
    u_rows = Array.sub u.idx 0 u.len;
    u_re;
    u_im;
    d_re;
    d_im;
    pinv;
    qperm = None;
  }

let factor ?perm a =
  match perm with
  | None -> factor_core a
  | Some p -> { (factor_core (Csparse.permute_sym p a)) with qperm = Some p }

let nnz f = Array.length f.l_re + Array.length f.u_re + f.n

(* ---- symbolic reuse across re-stamps of a fixed sparsity pattern ----

   An HB preconditioner factors one block per harmonic, an AC sweep one
   system per frequency — all with the same structural pattern, only the
   values (the j omega scaling) change. [analyze] runs the full pivoting
   factorization once while recording, per column, (a) which earlier pivot
   columns structurally update it and (b) the structural L/U column
   patterns (original-row coordinates, explicit zeros kept so the closure
   is value-independent). [refactor] then replays that elimination with
   the pivot order frozen — no pivot search, no per-column scan over all
   previous pivots — and raises [Singular] when a frozen pivot has decayed
   below [pivot_decay] times its column magnitude, at which point the
   caller falls back to a fresh [analyze]. Same KLU-style refactorization
   discipline as [Sparse_lu], including its pattern-only scatter plan
   ([Sparse.column_plan]): a refactor gathers a same-pattern matrix's
   values straight from its CSR array, with no transpose or permutation
   per call. *)

type symbolic = {
  s_n : int;
  (* the analyzed input pattern (shared, not copied) and its scatter plan:
     column k of the ordered matrix is rows s_at_rows.(p) holding input
     value s_src.(p), p in s_at_ptr.(k) .. s_at_ptr.(k+1)-1 *)
  s_row_ptr : int array;
  s_col_idx : int array;
  s_at_ptr : int array;
  s_at_rows : int array;
  s_src : int array;
  s_prow : int array; (* pivot position -> original row *)
  s_pinv : int array; (* original row -> pivot position *)
  (* structural column patterns, original-row coordinates *)
  sl_colptr : int array;
  sl_rows : int array;
  su_colptr : int array;
  su_rows : int array;
  (* the same patterns in pivot coordinates, ready to share with [t] *)
  sl_prows : int array;
  su_prows : int array;
  (* columns kp < k whose L column structurally reaches column k *)
  s_dep_ptr : int array;
  s_deps : int array;
  s_qperm : int array option; (* ordering the analysis was run under *)
}

let pivot_decay = 1e-10

type ibuf = { mutable ib : int array; mutable ilen : int }

let ibuf_make cap = { ib = Array.make (max cap 16) 0; ilen = 0 }

let ibuf_push b i =
  if b.ilen = Array.length b.ib then begin
    let ib = Array.make (2 * b.ilen) 0 in
    Array.blit b.ib 0 ib 0 b.ilen;
    b.ib <- ib
  end;
  b.ib.(b.ilen) <- i;
  b.ilen <- b.ilen + 1

let analyze ?perm a =
  let n = Csparse.rows a in
  if Csparse.cols a <> n then invalid_arg "Csparse_lu.analyze: matrix not square";
  let row_ptr, col_idx, vals = Csparse.csr a in
  let at_ptr, at_rows, src = Sparse.column_plan ?perm ~n ~row_ptr ~col_idx () in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  let x = Array.make n Cx.zero in
  let touched = Array.make n false in
  let touch_list = Array.make n 0 in
  let l = buf_make (4 * Csparse.nnz a) in
  let u = buf_make (4 * Csparse.nnz a) in
  let deps = ibuf_make (4 * n) in
  let l_colptr = Array.make (n + 1) 0 in
  let u_colptr = Array.make (n + 1) 0 in
  let dep_ptr = Array.make (n + 1) 0 in
  let udiag = Array.make n Cx.zero in
  for k = 0 to n - 1 do
    let nt = ref 0 in
    for p = at_ptr.(k) to at_ptr.(k + 1) - 1 do
      let i = at_rows.(p) in
      if not touched.(i) then begin
        touched.(i) <- true;
        touch_list.(!nt) <- i;
        incr nt;
        x.(i) <- vals.(src.(p))
      end
      else x.(i) <- x.(i) +: vals.(src.(p))
    done;
    (* structural elimination: a previous column participates whenever its
       pivot row is touched, value notwithstanding, so the recorded
       dependency set is independent of the stamped numbers *)
    for kp = 0 to k - 1 do
      let piv_row = prow.(kp) in
      if touched.(piv_row) then begin
        ibuf_push deps kp;
        let xv = x.(piv_row) in
        for p = l_colptr.(kp) to l_colptr.(kp + 1) - 1 do
          let r = l.idx.(p) in
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt;
            x.(r) <- Cx.zero
          end;
          x.(r) <- x.(r) -: (l.va.(p) *: xv)
        done
      end
    done;
    dep_ptr.(k + 1) <- deps.ilen;
    (* partial pivot over unassigned rows *)
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      if pinv.(i) < 0 then begin
        let m = Cx.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    if !best < 0 || !best_abs = 0.0 then raise Singular;
    let piv = !best in
    let pv = x.(piv) in
    pinv.(piv) <- k;
    prow.(k) <- piv;
    udiag.(k) <- pv;
    (* emit ALL touched rows (zeros included): the pattern must be the
       structural closure or a later refactor could miss fill-in *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      let v = x.(i) in
      if pinv.(i) >= 0 then begin
        if i <> piv then buf_push u i v (* original-row coords for now *)
      end
      else buf_push l i (v /: pv)
    done;
    l_colptr.(k + 1) <- l.len;
    u_colptr.(k + 1) <- u.len;
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      x.(i) <- Cx.zero;
      touched.(i) <- false
    done
  done;
  let sl_rows = Array.sub l.idx 0 l.len in
  let su_rows = Array.sub u.idx 0 u.len in
  let sl_prows = Array.map (fun i -> pinv.(i)) sl_rows in
  let su_prows = Array.map (fun i -> pinv.(i)) su_rows in
  let s =
    {
      s_n = n;
      s_row_ptr = row_ptr;
      s_col_idx = col_idx;
      s_at_ptr = at_ptr;
      s_at_rows = at_rows;
      s_src = src;
      s_prow = prow;
      s_pinv = pinv;
      sl_colptr = l_colptr;
      sl_rows;
      su_colptr = u_colptr;
      su_rows;
      sl_prows;
      su_prows;
      s_dep_ptr = dep_ptr;
      s_deps = Array.sub deps.ib 0 deps.ilen;
      s_qperm = perm;
    }
  in
  Atomic.incr n_full;
  Atomic.set last_fill (l.len + u.len + n);
  let l_re, l_im = split (Array.sub l.va 0 l.len)
  and u_re, u_im = split (Array.sub u.va 0 u.len)
  and d_re, d_im = split udiag in
  let f =
    {
      n;
      l_colptr;
      l_rows = sl_prows;
      l_re;
      l_im;
      u_colptr;
      u_rows = su_prows;
      u_re;
      u_im;
      d_re;
      d_im;
      pinv;
      qperm = perm;
    }
  in
  (s, f)

(* the analyzed pattern: physically shared index arrays first, a
   structural compare otherwise *)
let same_pattern s a =
  let row_ptr, col_idx, _ = Csparse.csr a in
  Csparse.rows a = s.s_n
  && Csparse.cols a = s.s_n
  && ((row_ptr == s.s_row_ptr && col_idx == s.s_col_idx)
     || (row_ptr = s.s_row_ptr && col_idx = s.s_col_idx))

let refactor_values s (vals : Cx.t array) =
  let n = s.s_n in
  let xr = Array.make n 0.0 and xi = Array.make n 0.0 in
  let nl = Array.length s.sl_rows and nu = Array.length s.su_rows in
  let l_re = Array.make nl 0.0 and l_im = Array.make nl 0.0 in
  let u_re = Array.make nu 0.0 and u_im = Array.make nu 0.0 in
  let d_re = Array.make n 0.0 and d_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* scatter A[:,k]; its rows are a subset of the recorded reach, which
       was zeroed after the previous column *)
    for p = s.s_at_ptr.(k) to s.s_at_ptr.(k + 1) - 1 do
      let i = s.s_at_rows.(p) and v = vals.(s.s_src.(p)) in
      xr.(i) <- xr.(i) +. v.re;
      xi.(i) <- xi.(i) +. v.im
    done;
    for dp = s.s_dep_ptr.(k) to s.s_dep_ptr.(k + 1) - 1 do
      let pr = s.s_prow.(s.s_deps.(dp)) in
      let vr = xr.(pr) and vi = xi.(pr) in
      if vr <> 0.0 || vi <> 0.0 then begin
        let kp = s.s_deps.(dp) in
        for p = s.sl_colptr.(kp) to s.sl_colptr.(kp + 1) - 1 do
          let r = s.sl_rows.(p) in
          xr.(r) <- xr.(r) -. mul_re l_re.(p) l_im.(p) vr vi;
          xi.(r) <- xi.(r) -. mul_im l_re.(p) l_im.(p) vr vi
        done
      end
    done;
    let piv_row = s.s_prow.(k) in
    let pr = xr.(piv_row) and pi = xi.(piv_row) in
    (* frozen-pivot health check against the column magnitude *)
    let colmax = ref (Float.hypot pr pi) in
    for p = s.sl_colptr.(k) to s.sl_colptr.(k + 1) - 1 do
      let r = s.sl_rows.(p) in
      let m = Float.hypot xr.(r) xi.(r) in
      if m > !colmax then colmax := m
    done;
    if (pr = 0.0 && pi = 0.0) || Float.hypot pr pi < pivot_decay *. !colmax then
      raise Singular;
    d_re.(k) <- pr;
    d_im.(k) <- pi;
    for p = s.su_colptr.(k) to s.su_colptr.(k + 1) - 1 do
      let r = s.su_rows.(p) in
      u_re.(p) <- xr.(r);
      u_im.(p) <- xi.(r);
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done;
    for p = s.sl_colptr.(k) to s.sl_colptr.(k + 1) - 1 do
      let r = s.sl_rows.(p) in
      l_re.(p) <- div_re xr.(r) xi.(r) pr pi;
      l_im.(p) <- div_im xr.(r) xi.(r) pr pi;
      xr.(r) <- 0.0;
      xi.(r) <- 0.0
    done;
    xr.(piv_row) <- 0.0;
    xi.(piv_row) <- 0.0
  done;
  Atomic.incr n_refactor;
  Atomic.set last_fill (nl + nu + n);
  {
    n;
    l_colptr = s.sl_colptr;
    l_rows = s.sl_prows;
    l_re;
    l_im;
    u_colptr = s.su_colptr;
    u_rows = s.su_prows;
    u_re;
    u_im;
    d_re;
    d_im;
    pinv = s.s_pinv;
    qperm = s.s_qperm;
  }

let values a =
  let _, _, v = Csparse.csr a in
  v

let refactor s a =
  if not (same_pattern s a) then invalid_arg "Csparse_lu.refactor: pattern mismatch";
  refactor_values s (values a)

let same_perm a b =
  match (a, b) with
  | None, None -> true
  | Some pa, Some pb -> pa == pb || pa = pb
  | _ -> false

let factor_cached ?perm cache a =
  match !cache with
  | Some s when same_perm s.s_qperm perm && same_pattern s a -> begin
      try refactor_values s (values a)
      with Singular ->
        (* pivots drifted too far from the analyzed values: re-pivot *)
        let s', f = analyze ?perm a in
        cache := Some s';
        f
    end
  | _ ->
      let s, f = analyze ?perm a in
      cache := Some s;
      f

(* Solves wrap the fill-reducing order transparently: the stored factor is
   of A' = P A P^T, so A x = b becomes A' (P x) = P b. *)
let apply_qperm f solve_core b =
  match f.qperm with
  | None -> solve_core b
  | Some p ->
      let n = f.n in
      if Array.length b <> n then invalid_arg "Csparse_lu.solve";
      let pb = Array.init n (fun k -> b.(p.(k))) in
      let px = solve_core pb in
      let x = Array.make n Cx.zero in
      for k = 0 to n - 1 do
        x.(p.(k)) <- px.(k)
      done;
      x

let solve_core f (b : Cvec.t) =
  if Array.length b <> f.n then invalid_arg "Csparse_lu.solve";
  let n = f.n in
  (* y = P b *)
  let yr = Array.make n 0.0 and yi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    yr.(f.pinv.(i)) <- b.(i).re;
    yi.(f.pinv.(i)) <- b.(i).im
  done;
  (* L y' = y, unit diagonal *)
  for k = 0 to n - 1 do
    let vr = yr.(k) and vi = yi.(k) in
    if vr <> 0.0 || vi <> 0.0 then
      for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
        let r = f.l_rows.(p) in
        yr.(r) <- yr.(r) -. mul_re f.l_re.(p) f.l_im.(p) vr vi;
        yi.(r) <- yi.(r) -. mul_im f.l_re.(p) f.l_im.(p) vr vi
      done
  done;
  (* U x = y' *)
  for k = n - 1 downto 0 do
    let vr = div_re yr.(k) yi.(k) f.d_re.(k) f.d_im.(k)
    and vi = div_im yr.(k) yi.(k) f.d_re.(k) f.d_im.(k) in
    yr.(k) <- vr;
    yi.(k) <- vi;
    if vr <> 0.0 || vi <> 0.0 then
      for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
        let r = f.u_rows.(p) in
        yr.(r) <- yr.(r) -. mul_re f.u_re.(p) f.u_im.(p) vr vi;
        yi.(r) <- yi.(r) -. mul_im f.u_re.(p) f.u_im.(p) vr vi
      done
  done;
  Array.init n (fun i -> { re = yr.(i); im = yi.(i) })

let solve f b = apply_qperm f (solve_core f) b

let solve_transposed_core f (b : Cvec.t) =
  if Array.length b <> f.n then invalid_arg "Csparse_lu.solve_transposed";
  let n = f.n in
  (* U^T z = b: forward, row k of U^T is column k of U *)
  let zr = Array.make n 0.0 and zi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let sr = ref b.(k).re and si = ref b.(k).im in
    for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
      let r = f.u_rows.(p) in
      sr := !sr -. mul_re f.u_re.(p) f.u_im.(p) zr.(r) zi.(r);
      si := !si -. mul_im f.u_re.(p) f.u_im.(p) zr.(r) zi.(r)
    done;
    zr.(k) <- div_re !sr !si f.d_re.(k) f.d_im.(k);
    zi.(k) <- div_im !sr !si f.d_re.(k) f.d_im.(k)
  done;
  (* L^T w = z: backward, unit diagonal *)
  for k = n - 1 downto 0 do
    let sr = ref zr.(k) and si = ref zi.(k) in
    for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
      let r = f.l_rows.(p) in
      sr := !sr -. mul_re f.l_re.(p) f.l_im.(p) zr.(r) zi.(r);
      si := !si -. mul_im f.l_re.(p) f.l_im.(p) zr.(r) zi.(r)
    done;
    zr.(k) <- !sr;
    zi.(k) <- !si
  done;
  (* x = P^T w *)
  Array.init n (fun i -> { re = zr.(f.pinv.(i)); im = zi.(f.pinv.(i)) })

(* (P A P^T)^T = P A^T P^T: the same symmetric wrap applies *)
let solve_transposed f b = apply_qperm f (solve_transposed_core f) b

let solve_mat f (m : Cmat.t) =
  if m.Cmat.rows <> f.n then invalid_arg "Csparse_lu.solve_mat";
  let out = Cmat.make m.Cmat.rows m.Cmat.cols in
  for j = 0 to m.Cmat.cols - 1 do
    let bj = Array.init m.Cmat.rows (fun i -> Cmat.get m i j) in
    let xj = solve f bj in
    for i = 0 to m.Cmat.rows - 1 do
      Cmat.set out i j xj.(i)
    done
  done;
  out

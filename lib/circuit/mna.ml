open Rfkit_la

(* Structural sparsity pattern of a stamped matrix: CSR indices without
   values, computed once per circuit and shared across all Newton
   iterations (the values array is fresh per evaluation). *)
type pattern = { p_row_ptr : int array; p_col_idx : int array }

type gc_pattern = {
  row_ptr : int array;
  col_idx : int array;
  g_slot : int array;
  c_slot : int array;
}

type t = {
  nl : Netlist.t;
  nn : int;  (* node unknowns *)
  total : int;
  branches : (string * int) list;  (* device name -> branch unknown index *)
  devs : Device.t array;
  dev_branch : int array;  (* per device: its branch unknown, -1 if none *)
  mutable g_pat : pattern option;  (* lazily built, state-independent *)
  mutable c_pat : pattern option;
  mutable gc_pat : gc_pattern option;
  (* structural (0/1-valued, device-stamped-only — no forced diagonal)
     views of the same patterns, feeding the Rfkit_struct pre-analysis *)
  mutable sg : Rfkit_la.Sparse.t option;
  mutable sc : Rfkit_la.Sparse.t option;
  mutable sgc : Rfkit_la.Sparse.t option;
  mutable rank_g : int option;
  mutable rank_gc : int option;
  (* fill-reducing ordering for every sparse factorization of this
     circuit's Jacobians; the permutation is computed once per (circuit,
     mode) on the factored union pattern and shared by all engines *)
  mutable ord_mode : Rfkit_struct.Order.mode;
  mutable ord_perm : int array option option;
}

let build nl =
  let nn = Netlist.node_count nl in
  let devs = Array.of_list (Netlist.devices nl) in
  let branches = ref [] in
  let next = ref nn in
  let dev_branch =
    Array.map
      (fun d ->
        if Device.has_branch_current d then begin
          branches := (Device.name d, !next) :: !branches;
          incr next;
          !next - 1
        end
        else -1)
      devs
  in
  {
    nl;
    nn;
    total = !next;
    branches = List.rev !branches;
    devs;
    dev_branch;
    g_pat = None;
    c_pat = None;
    gc_pat = None;
    sg = None;
    sc = None;
    sgc = None;
    rank_g = None;
    rank_gc = None;
    ord_mode = Rfkit_struct.Order.Natural;
    ord_perm = None;
  }

let size c = c.total
let n_nodes c = c.nn
let netlist c = c.nl

let voltage _ (x : Vec.t) node = if node = Netlist.gnd then 0.0 else x.(node)

(* look up without creating: [Netlist.node] would mint a fresh index for
   an unknown name, and that index is the first branch unknown *)
let find_node c name =
  match Netlist.find_node c.nl name with
  | Some idx when idx <> Netlist.gnd && idx < c.nn -> Some idx
  | _ -> None

let node c name =
  match find_node c name with Some idx -> idx | None -> raise Not_found

let branch_index c name = List.assoc_opt name c.branches

let branch c name =
  match branch_index c name with
  | Some i -> i
  | None -> invalid_arg ("Mna: no branch for device " ^ name)

(* ---- device evaluation ---------------------------------------------------

   The evaluators below run once per Newton iteration, so they are written
   to allocate nothing but their result: a plain loop over the device
   array (no closure), top-level [@inline] helpers (a float passed to a
   local closure would be boxed), and each branch unknown resolved once in
   [build] rather than by name on every call. *)

let[@inline] volt (x : Vec.t) n = if n = Netlist.gnd then 0.0 else x.(n)
let[@inline] add_at (a : Vec.t) n dv = if n <> Netlist.gnd then a.(n) <- a.(n) +. dv

(* guarded exponential: linear continuation above the cutoff keeps Newton
   iterates finite for large forward bias *)
let[@inline] exp_lim u =
  if u > 40.0 then Float.exp 40.0 *. (1.0 +. u -. 40.0) else Float.exp u

let[@inline] dexp_lim u = if u > 40.0 then Float.exp 40.0 else Float.exp u

(* MOSFET large-signal current and small-signal (gm, gds) in the forward
   frame; symmetric operation handled by the caller via node exchange *)
let[@inline] mos_id ~kp ~vth ~lambda vgs vds =
  let vov = vgs -. vth in
  if vov <= 0.0 then 0.0
  else if vds < vov then
    kp *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. (1.0 +. (lambda *. vds))
  else 0.5 *. kp *. vov *. vov *. (1.0 +. (lambda *. vds))

let[@inline] mos_gm ~kp ~vth ~lambda vgs vds =
  let vov = vgs -. vth in
  if vov <= 0.0 then 0.0
  else if vds < vov then kp *. vds *. (1.0 +. (lambda *. vds))
  else kp *. vov *. (1.0 +. (lambda *. vds))

let[@inline] mos_gds ~kp ~vth ~lambda vgs vds =
  let vov = vgs -. vth in
  if vov <= 0.0 then 0.0
  else if vds < vov then
    (kp *. (vov -. vds) *. (1.0 +. (lambda *. vds)))
    +. (kp *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. lambda)
  else 0.5 *. kp *. vov *. vov *. lambda

let eval_q c (x : Vec.t) =
  let q = Vec.create c.total in
  for k = 0 to Array.length c.devs - 1 do
    match c.devs.(k) with
    | Device.Capacitor { p; n; c = cap; _ } ->
        let vc = volt x p -. volt x n in
        add_at q p (cap *. vc);
        add_at q n (-.(cap *. vc))
    | Device.Nl_capacitor { p; n; c0; c1; _ } ->
        let vc = volt x p -. volt x n in
        let qq = (c0 *. vc) +. (0.5 *. c1 *. vc *. vc) in
        add_at q p qq;
        add_at q n (-.qq)
    | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
        let vc = volt x p -. volt x n in
        add_at q p (cj *. vc);
        add_at q n (-.(cj *. vc))
    | Device.Inductor { l; _ } ->
        let bi = c.dev_branch.(k) in
        q.(bi) <- q.(bi) +. (l *. x.(bi))
    | Device.Mosfet { d = nd; g; s; cgs; cgd; _ } ->
        let vgs = volt x g -. volt x s and vgd = volt x g -. volt x nd in
        add_at q g ((cgs *. vgs) +. (cgd *. vgd));
        add_at q s (-.(cgs *. vgs));
        add_at q nd (-.(cgd *. vgd))
    | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
    | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
    | Device.Mult_vccs _ | Device.Noise_current _ -> ()
  done;
  q

let eval_f c (x : Vec.t) =
  let f = Vec.create c.total in
  for k = 0 to Array.length c.devs - 1 do
    match c.devs.(k) with
    | Device.Resistor { p; n; r; _ } ->
        let i = (volt x p -. volt x n) /. r in
        add_at f p i;
        add_at f n (-.i)
    | Device.Vccs { p; n; cp; cn; gm; _ } ->
        let i = gm *. (volt x cp -. volt x cn) in
        add_at f p i;
        add_at f n (-.i)
    | Device.Diode { p; n; is; nvt; _ } ->
        let i = is *. (exp_lim ((volt x p -. volt x n) /. nvt) -. 1.0) in
        add_at f p i;
        add_at f n (-.i)
    | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
        let i = gm *. vsat *. tanh ((volt x cp -. volt x cn) /. vsat) in
        add_at f p i;
        add_at f n (-.i)
    | Device.Cubic_conductor { p; n; g1; g3; _ } ->
        let vv = volt x p -. volt x n in
        let i = (g1 *. vv) +. (g3 *. vv *. vv *. vv) in
        add_at f p i;
        add_at f n (-.i)
    | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
        let vds = volt x nd -. volt x s in
        if vds >= 0.0 then begin
          let id = mos_id ~kp ~vth ~lambda (volt x g -. volt x s) vds in
          add_at f nd id;
          add_at f s (-.id)
        end
        else begin
          (* swapped frame: treat s as drain *)
          let id = mos_id ~kp ~vth ~lambda (volt x g -. volt x nd) (-.vds) in
          add_at f s id;
          add_at f nd (-.id)
        end
    | Device.Vsource { p; n; _ } ->
        let bi = c.dev_branch.(k) in
        add_at f p x.(bi);
        add_at f n (-.x.(bi));
        f.(bi) <- f.(bi) +. (volt x p -. volt x n)
    | Device.Inductor { p; n; _ } ->
        let bi = c.dev_branch.(k) in
        add_at f p x.(bi);
        add_at f n (-.x.(bi));
        f.(bi) <- f.(bi) -. (volt x p -. volt x n)
    | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k = gain; _ } ->
        let i = gain *. (volt x a_p -. volt x a_n) *. (volt x b_p -. volt x b_n) in
        add_at f p i;
        add_at f n (-.i)
    | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
    | Device.Noise_current _ -> ()
  done;
  f

let eval_b_with c value_of =
  let b = Vec.create c.total in
  for k = 0 to Array.length c.devs - 1 do
    match c.devs.(k) with
    | Device.Vsource { wave; _ } ->
        let bi = c.dev_branch.(k) in
        b.(bi) <- b.(bi) +. value_of wave
    | Device.Isource { p; n; wave; _ } ->
        let i = value_of wave in
        add_at b p i;
        add_at b n (-.i)
    | _ -> ()
  done;
  b

let eval_b c t = eval_b_with c (fun w -> Wave.eval w t)
let dc_b c = eval_b_with c Wave.dc_value

let jac_c c (x : Vec.t) =
  let m = Mat.make c.total c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then Mat.update m i j (fun w -> w +. dv)
  in
  Array.iter
    (fun d ->
      match d with
      | Device.Capacitor { p; n; c = cap; _ } ->
          stamp p p cap;
          stamp p n (-.cap);
          stamp n p (-.cap);
          stamp n n cap
      | Device.Nl_capacitor { p; n; c0; c1; _ } ->
          let ceff = c0 +. (c1 *. (v p -. v n)) in
          stamp p p ceff;
          stamp p n (-.ceff);
          stamp n p (-.ceff);
          stamp n n ceff
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          stamp p p cj;
          stamp p n (-.cj);
          stamp n p (-.cj);
          stamp n n cj
      | Device.Inductor { name; l; _ } ->
          let bi = branch c name in
          Mat.update m bi bi (fun w -> w +. l)
      | Device.Mosfet { g; s; d = nd; cgs; cgd; _ } ->
          stamp g g (cgs +. cgd);
          stamp g s (-.cgs);
          stamp g nd (-.cgd);
          stamp s g (-.cgs);
          stamp s s cgs;
          stamp nd g (-.cgd);
          stamp nd nd cgd
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
      | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
      | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs;
  m

let jac_g c (x : Vec.t) =
  let m = Mat.make c.total c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  (* conductance between unknowns, ground rows/cols dropped *)
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then Mat.update m i j (fun w -> w +. dv)
  in
  (* 2x2 conductance stamp of a current p->n controlled by (cp - cn) *)
  let stamp_gm p n cp cn g =
    stamp p cp g;
    stamp p cn (-.g);
    stamp n cp (-.g);
    stamp n cn g
  in
  Array.iter
    (fun d ->
      match d with
      | Device.Resistor { p; n; r; _ } -> stamp_gm p n p n (1.0 /. r)
      | Device.Vccs { p; n; cp; cn; gm; _ } -> stamp_gm p n cp cn gm
      | Device.Diode { p; n; is; nvt; _ } ->
          let g = is /. nvt *. dexp_lim ((v p -. v n) /. nvt) in
          stamp_gm p n p n g
      | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
          let th = tanh ((v cp -. v cn) /. vsat) in
          stamp_gm p n cp cn (gm *. (1.0 -. (th *. th)))
      | Device.Cubic_conductor { p; n; g1; g3; _ } ->
          let vv = v p -. v n in
          stamp_gm p n p n (g1 +. (3.0 *. g3 *. vv *. vv))
      | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
          let vds = v nd -. v s in
          if vds >= 0.0 then begin
            let gm = mos_gm ~kp ~vth ~lambda (v g -. v s) vds
            and gds = mos_gds ~kp ~vth ~lambda (v g -. v s) vds in
            stamp_gm nd s g s gm;
            stamp_gm nd s nd s gds
          end
          else begin
            let gm = mos_gm ~kp ~vth ~lambda (v g -. v nd) (-.vds)
            and gds = mos_gds ~kp ~vth ~lambda (v g -. v nd) (-.vds) in
            stamp_gm s nd g nd gm;
            stamp_gm s nd s nd gds
          end
      | Device.Vsource { name; p; n; _ } ->
          let bi = branch c name in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p 1.0;
          stamp bi n (-1.0)
      | Device.Inductor { name; p; n; _ } ->
          let bi = branch c name in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p (-1.0);
          stamp bi n 1.0
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k; _ } ->
          let va = v a_p -. v a_n and vb = v b_p -. v b_n in
          stamp_gm p n a_p a_n (k *. vb);
          stamp_gm p n b_p b_n (k *. va)
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs;
  m

(* ---- sparse stamping ----------------------------------------------------

   The index sets touched by [jac_g]/[jac_c] depend only on topology, not on
   the linearization point: the one state-dependent branch, the MOSFET's
   vds-sign frame swap, stamps a subset of the union of both frames, which
   is what the pattern enumerates. The G pattern additionally carries the
   full diagonal so gmin/shift stamping (via [Sparse.add]) and ILU(0) never
   meet a structurally missing slot. *)

let pattern_of_pairs total pairs =
  let arr = Array.of_list pairs in
  Array.sort
    (fun (i1, j1) (i2, j2) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    arr;
  let m = Array.length arr in
  let distinct = ref 0 in
  for k = 0 to m - 1 do
    if k = 0 || arr.(k) <> arr.(k - 1) then incr distinct
  done;
  let row_ptr = Array.make (total + 1) 0 in
  let col_idx = Array.make !distinct 0 in
  let pos = ref (-1) in
  for k = 0 to m - 1 do
    if k = 0 || arr.(k) <> arr.(k - 1) then begin
      let i, j = arr.(k) in
      incr pos;
      col_idx.(!pos) <- j;
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    end
  done;
  for i = 0 to total - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { p_row_ptr = row_ptr; p_col_idx = col_idx }

(* device-stamped (i, j) index pairs of G = df/dx, no forced diagonal *)
let g_pairs c =
  let pairs = ref [] in
  let add i j =
    if i <> Netlist.gnd && j <> Netlist.gnd then pairs := (i, j) :: !pairs
  in
  let add_gm p n cp cn =
    add p cp;
    add p cn;
    add n cp;
    add n cn
  in
  Array.iter
    (fun d ->
      match d with
      | Device.Resistor { p; n; _ } -> add_gm p n p n
      | Device.Vccs { p; n; cp; cn; _ } -> add_gm p n cp cn
      | Device.Diode { p; n; _ } -> add_gm p n p n
      | Device.Tanh_gm { p; n; cp; cn; _ } -> add_gm p n cp cn
      | Device.Cubic_conductor { p; n; _ } -> add_gm p n p n
      | Device.Mosfet { d = nd; g; s; _ } ->
          (* union of both vds frames *)
          add_gm nd s g s;
          add_gm nd s nd s;
          add_gm s nd g nd;
          add_gm s nd s nd
      | Device.Vsource { name; p; n; _ } ->
          let bi = branch c name in
          add p bi;
          add n bi;
          add bi p;
          add bi n
      | Device.Inductor { name; p; n; _ } ->
          let bi = branch c name in
          add p bi;
          add n bi;
          add bi p;
          add bi n
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; _ } ->
          add_gm p n a_p a_n;
          add_gm p n b_p b_n
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs;
  !pairs

(* device-stamped (i, j) index pairs of C = dq/dx *)
let c_pairs c =
  let pairs = ref [] in
  let add i j =
    if i <> Netlist.gnd && j <> Netlist.gnd then pairs := (i, j) :: !pairs
  in
  Array.iter
    (fun d ->
      match d with
      | Device.Capacitor { p; n; _ } | Device.Nl_capacitor { p; n; _ } ->
          add p p;
          add p n;
          add n p;
          add n n
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          add p p;
          add p n;
          add n p;
          add n n
      | Device.Inductor { name; _ } ->
          let bi = branch c name in
          pairs := (bi, bi) :: !pairs
      | Device.Mosfet { g; s; d = nd; _ } ->
          add g g;
          add g s;
          add g nd;
          add s g;
          add s s;
          add nd g;
          add nd nd
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _
      | Device.Vccs _ | Device.Tanh_gm _ | Device.Cubic_conductor _
      | Device.Diode _ | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs;
  !pairs

let g_pattern c =
  match c.g_pat with
  | Some p -> p
  | None ->
      (* the factored pattern carries the full diagonal (explicit zeros)
         so gmin/shift stamping and ILU(0) never miss a slot *)
      let pairs = ref (g_pairs c) in
      for i = 0 to c.total - 1 do
        pairs := (i, i) :: !pairs
      done;
      let p = pattern_of_pairs c.total !pairs in
      c.g_pat <- Some p;
      p

let c_pattern c =
  match c.c_pat with
  | Some p -> p
  | None ->
      let p = pattern_of_pairs c.total (c_pairs c) in
      c.c_pat <- Some p;
      p

(* ---- structural pre-analysis ------------------------------------------

   The matching/DM machinery must see only what devices actually stamp:
   the forced diagonal of the factored G pattern would make every row
   trivially matchable and hide real deficiencies. These views are
   0/1-valued CSR matrices over the device-stamped pairs alone. *)

let ones_of_pairs total pairs =
  let p = pattern_of_pairs total pairs in
  Sparse.of_csr ~rows:total ~cols:total ~row_ptr:p.p_row_ptr
    ~col_idx:p.p_col_idx
    ~values:(Array.make (Array.length p.p_col_idx) 1.0)

let structural_g c =
  match c.sg with
  | Some s -> s
  | None ->
      let s = ones_of_pairs c.total (g_pairs c) in
      c.sg <- Some s;
      s

let structural_c c =
  match c.sc with
  | Some s -> s
  | None ->
      let s = ones_of_pairs c.total (c_pairs c) in
      c.sc <- Some s;
      s

let structural_gc c =
  match c.sgc with
  | Some s -> s
  | None ->
      let s = ones_of_pairs c.total (g_pairs c @ c_pairs c) in
      c.sgc <- Some s;
      s

let structural_rank_g c =
  match c.rank_g with
  | Some r -> r
  | None ->
      let r = Rfkit_struct.Dm.structural_rank (structural_g c) in
      c.rank_g <- Some r;
      r

let structural_rank_gc c =
  match c.rank_gc with
  | Some r -> r
  | None ->
      let r = Rfkit_struct.Dm.structural_rank (structural_gc c) in
      c.rank_gc <- Some r;
      r

let unknown_label c i =
  if i < c.nn then Printf.sprintf "v(%s)" (Netlist.node_name c.nl i)
  else
    match List.find_opt (fun (_, bi) -> bi = i) c.branches with
    | Some (name, _) -> Printf.sprintf "i(%s)" name
    | None -> Printf.sprintf "x[%d]" i

let unknown_origin c i =
  if i < c.nn then
    (* earliest deck line among the devices touching the node *)
    Array.fold_left
      (fun acc d ->
        let touches =
          List.exists (fun (_, nd) -> nd = i) (Device.terminals d)
        in
        match (touches, Device.origin d, acc) with
        | true, Some l, None -> Some l
        | true, Some l, Some a -> Some (min a l)
        | _ -> acc)
      None c.devs
  else
    match List.find_opt (fun (_, bi) -> bi = i) c.branches with
    | Some (name, _) ->
        Array.fold_left
          (fun acc d -> if Device.name d = name then Device.origin d else acc)
          None c.devs
    | None -> None

(* ---- fill-reducing ordering -------------------------------------------- *)

let set_ordering c mode =
  if mode <> c.ord_mode then begin
    c.ord_mode <- mode;
    c.ord_perm <- None
  end

let ordering c = c.ord_mode

let ordering_perm c =
  match c.ord_perm with
  | Some p -> p
  | None ->
      (* order on the union pattern actually factored by the engines:
         device pairs of G and C plus the forced diagonal, so the same
         permutation serves DC (G alone) and transient/HB (C/dt + aG) *)
      let pairs = ref (g_pairs c @ c_pairs c) in
      for i = 0 to c.total - 1 do
        pairs := (i, i) :: !pairs
      done;
      let u = ones_of_pairs c.total !pairs in
      let p = Rfkit_struct.Order.compute c.ord_mode u in
      c.ord_perm <- Some p;
      p

let slot pat i j =
  let lo = ref pat.p_row_ptr.(i) and hi = ref (pat.p_row_ptr.(i + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = pat.p_col_idx.(mid) in
    if cm = j then begin
      res := mid;
      lo := !hi + 1
    end
    else if cm < j then lo := mid + 1
    else hi := mid - 1
  done;
  if !res < 0 then invalid_arg "Mna: stamp outside cached pattern";
  !res

(* one stamp = one slot search; the pair loads/stores the same slot *)
let[@inline] stamp pat (vals : float array) i j dv =
  if i <> Netlist.gnd && j <> Netlist.gnd then begin
    let k = slot pat i j in
    vals.(k) <- vals.(k) +. dv
  end

(* 2x2 conductance stamp of a current p->n controlled by (cp - cn) *)
let[@inline] stamp_gm pat vals p n cp cn g =
  stamp pat vals p cp g;
  stamp pat vals p cn (-.g);
  stamp pat vals n cp (-.g);
  stamp pat vals n cn g

(* C(x) values on [c_pattern] *)
let c_values c (x : Vec.t) =
  let pat = c_pattern c in
  let vals = Array.make (Array.length pat.p_col_idx) 0.0 in
  for k = 0 to Array.length c.devs - 1 do
    match c.devs.(k) with
    | Device.Capacitor { p; n; c = cap; _ } -> stamp_gm pat vals p n p n cap
    | Device.Nl_capacitor { p; n; c0; c1; _ } ->
        stamp_gm pat vals p n p n (c0 +. (c1 *. (volt x p -. volt x n)))
    | Device.Diode { p; n; cj; _ } when cj > 0.0 -> stamp_gm pat vals p n p n cj
    | Device.Inductor { l; _ } ->
        let bi = c.dev_branch.(k) in
        stamp pat vals bi bi l
    | Device.Mosfet { g; s; d = nd; cgs; cgd; _ } ->
        stamp pat vals g g (cgs +. cgd);
        stamp pat vals g s (-.cgs);
        stamp pat vals g nd (-.cgd);
        stamp pat vals s g (-.cgs);
        stamp pat vals s s cgs;
        stamp pat vals nd g (-.cgd);
        stamp pat vals nd nd cgd
    | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
    | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
    | Device.Mult_vccs _ | Device.Noise_current _ -> ()
  done;
  vals

(* G(x) values on [g_pattern], plus [gmin] on every node row's diagonal
   slot after the devices have stamped *)
let g_values ?(gmin = 0.0) c (x : Vec.t) =
  let pat = g_pattern c in
  let vals = Array.make (Array.length pat.p_col_idx) 0.0 in
  for k = 0 to Array.length c.devs - 1 do
    match c.devs.(k) with
    | Device.Resistor { p; n; r; _ } -> stamp_gm pat vals p n p n (1.0 /. r)
    | Device.Vccs { p; n; cp; cn; gm; _ } -> stamp_gm pat vals p n cp cn gm
    | Device.Diode { p; n; is; nvt; _ } ->
        stamp_gm pat vals p n p n (is /. nvt *. dexp_lim ((volt x p -. volt x n) /. nvt))
    | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
        let th = tanh ((volt x cp -. volt x cn) /. vsat) in
        stamp_gm pat vals p n cp cn (gm *. (1.0 -. (th *. th)))
    | Device.Cubic_conductor { p; n; g1; g3; _ } ->
        let vv = volt x p -. volt x n in
        stamp_gm pat vals p n p n (g1 +. (3.0 *. g3 *. vv *. vv))
    | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
        let vds = volt x nd -. volt x s in
        if vds >= 0.0 then begin
          let vgs = volt x g -. volt x s in
          stamp_gm pat vals nd s g s (mos_gm ~kp ~vth ~lambda vgs vds);
          stamp_gm pat vals nd s nd s (mos_gds ~kp ~vth ~lambda vgs vds)
        end
        else begin
          let vgd = volt x g -. volt x nd in
          stamp_gm pat vals s nd g nd (mos_gm ~kp ~vth ~lambda vgd (-.vds));
          stamp_gm pat vals s nd s nd (mos_gds ~kp ~vth ~lambda vgd (-.vds))
        end
    | Device.Vsource { p; n; _ } ->
        let bi = c.dev_branch.(k) in
        stamp pat vals p bi 1.0;
        stamp pat vals n bi (-1.0);
        stamp pat vals bi p 1.0;
        stamp pat vals bi n (-1.0)
    | Device.Inductor { p; n; _ } ->
        let bi = c.dev_branch.(k) in
        stamp pat vals p bi 1.0;
        stamp pat vals n bi (-1.0);
        stamp pat vals bi p (-1.0);
        stamp pat vals bi n 1.0
    | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k = gain; _ } ->
        let va = volt x a_p -. volt x a_n and vb = volt x b_p -. volt x b_n in
        stamp_gm pat vals p n a_p a_n (gain *. vb);
        stamp_gm pat vals p n b_p b_n (gain *. va)
    | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
    | Device.Noise_current _ -> ()
  done;
  if gmin <> 0.0 then
    for i = 0 to c.nn - 1 do
      stamp pat vals i i gmin
    done;
  vals

let csr_of pat vals =
  let n = Array.length pat.p_row_ptr - 1 in
  Sparse.of_csr ~rows:n ~cols:n ~row_ptr:pat.p_row_ptr ~col_idx:pat.p_col_idx
    ~values:vals

let jac_c_sparse c x = csr_of (c_pattern c) (c_values c x)

let jac_g_sparse ?gmin c x = csr_of (g_pattern c) (g_values ?gmin c x)

(* ---- companion matrices ------------------------------------------------

   Transient, shooting and jitter all factor a_c C(x) + a_g G(x). Both
   matrices are stamped on their own cached patterns and combined per
   entry of the cached union pattern, with exactly the arithmetic of
   [Sparse.add (Sparse.scale a_c C) (Sparse.scale a_g G)]: an entry only
   one of them stamps is that matrix's scaled value alone, so the result
   is bit-identical to the merge it replaces. The union's index arrays are
   shared by every call, which lets [Sparse_lu]'s refactor recognise the
   pattern by physical equality. *)

let gc_pattern c =
  match c.gc_pat with
  | Some u -> u
  | None ->
      let g = g_pattern c and cp = c_pattern c in
      let n = c.total in
      let row_ptr = Array.make (n + 1) 0 in
      let cols = ref [] and gs = ref [] and cs = ref [] in
      let len = ref 0 in
      for i = 0 to n - 1 do
        let kg = ref g.p_row_ptr.(i) and kc = ref cp.p_row_ptr.(i) in
        let eg = g.p_row_ptr.(i + 1) and ec = cp.p_row_ptr.(i + 1) in
        while !kg < eg || !kc < ec do
          let jg = if !kg < eg then g.p_col_idx.(!kg) else max_int in
          let jc = if !kc < ec then cp.p_col_idx.(!kc) else max_int in
          let j = min jg jc in
          cols := j :: !cols;
          gs := (if jg = j then !kg else -1) :: !gs;
          cs := (if jc = j then !kc else -1) :: !cs;
          if jg = j then incr kg;
          if jc = j then incr kc;
          incr len
        done;
        row_ptr.(i + 1) <- !len
      done;
      let arr l = Array.of_list (List.rev l) in
      let u = { row_ptr; col_idx = arr !cols; g_slot = arr !gs; c_slot = arr !cs } in
      c.gc_pat <- Some u;
      u

let companion c x ~a_c ~a_g =
  let u = gc_pattern c in
  let gv = g_values c x and cv = c_values c x in
  let m = Array.length u.col_idx in
  let vals = Array.make m 0.0 in
  for k = 0 to m - 1 do
    let gi = u.g_slot.(k) and ci = u.c_slot.(k) in
    vals.(k) <-
      (if ci < 0 then a_g *. gv.(gi)
       else if gi < 0 then a_c *. cv.(ci)
       else (a_c *. cv.(ci)) +. (a_g *. gv.(gi)))
  done;
  Sparse.of_csr ~rows:c.total ~cols:c.total ~row_ptr:u.row_ptr ~col_idx:u.col_idx
    ~values:vals

let jac_g_op c x = Op.sparse (jac_g_sparse c x)
let jac_c_op c x = Op.sparse (jac_c_sparse c x)

let linear_gc c =
  let origin = Vec.create c.total in
  (jac_g c origin, jac_c c origin)

let linear_gc_sparse c =
  let origin = Vec.create c.total in
  (jac_g_sparse c origin, jac_c_sparse c origin)

let linear_gc_op c =
  let g, cc = linear_gc_sparse c in
  (Op.sparse g, Op.sparse cc)

let is_linear c = Array.for_all Device.is_linear c.devs

let fundamentals c =
  Array.to_list c.devs
  |> List.concat_map (fun d ->
         match d with
         | Device.Vsource { wave; _ } | Device.Isource { wave; _ } ->
             Wave.fundamentals wave
         | _ -> [])
  |> List.sort_uniq compare

let source_pattern c name =
  let b = Vec.create c.total in
  let found = ref false in
  Array.iter
    (fun d ->
      match d with
      | Device.Vsource { name = n'; _ } when n' = name ->
          b.(branch c name) <- 1.0;
          found := true
      | Device.Isource { name = n'; p; n; _ } when n' = name ->
          if p <> Netlist.gnd then b.(p) <- b.(p) +. 1.0;
          if n <> Netlist.gnd then b.(n) <- b.(n) -. 1.0;
          found := true
      | _ -> ())
    c.devs;
  if not !found then raise Not_found;
  b

let noise_sources c =
  let node_voltage x n = voltage c x n in
  Array.to_list c.devs
  |> List.concat_map (Device.noise_sources ~node_voltage)
  |> Array.of_list

let noise_pattern c (src : Device.noise_source) =
  let b = Vec.create c.total in
  if src.Device.np <> Netlist.gnd then b.(src.Device.np) <- 1.0;
  if src.Device.nn <> Netlist.gnd then b.(src.Device.nn) <- b.(src.Device.nn) -. 1.0;
  b

open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "slice"

type coupling = { h1 : float; q_ref : Vec.t array }

(* one backward-Euler step of the slice equation *)
let be_step ?(damping = 5.0) c ~b ~coupling ~h2 ~x_prev ~tau1 ~k_step =
  let inv_h1, q_ref_k =
    match coupling with
    | Some { h1; q_ref } -> (1.0 /. h1, q_ref.(k_step))
    | None -> (0.0, [||])
  in
  let q0 = Mna.eval_q c x_prev in
  let bk = b tau1 in
  let n = Mna.size c in
  let x = Vec.copy x_prev in
  let ok = ref false in
  let iter = ref 0 in
  let last_res = ref infinity in
  (try
     while (not !ok) && !iter < 50 do
       incr iter;
       Guard.check ~engine ~iter:!iter x;
       let q1 = Mna.eval_q c x in
       let f1 = Mna.eval_f c x in
       let r =
         Vec.init n (fun i ->
             ((q1.(i) -. q0.(i)) /. h2)
             +. f1.(i) -. bk.(i)
             +. (if inv_h1 > 0.0 then (q1.(i) -. q_ref_k.(i)) *. inv_h1 else 0.0))
       in
       last_res := Vec.norm_inf r;
       if !last_res <= 1e-10 *. Float.max 1.0 (Vec.norm_inf bk) +. 1e-12 then
         ok := true
       else begin
         let j = Mna.companion c x ~a_c:((1.0 /. h2) +. inv_h1) ~a_g:1.0 in
         if Faults.singular_now ~engine then raise Lu.Singular;
         let dx = Sparse_lu.solve (Sparse_lu.factor j) r in
         let step = Vec.norm_inf dx in
         (* the q/h terms make absolute residual tolerances unreachable for
            reactive branches; a vanishing Newton step means convergence *)
         if step <= 1e-11 *. Float.max 1.0 (Vec.norm_inf x) then ok := true
         else begin
           let scale = if step > damping then damping /. step else 1.0 in
           Vec.axpy (-.scale) dx x
         end
       end
     done
   with
  | Lu.Singular ->
      Error.fail ~engine ~time:tau1 ~cause:Supervisor.Singular_jacobian
        "singular slice step Jacobian"
  | Guard.Non_finite_found { iter; index } ->
      Error.fail ~engine ~time:tau1
        ~cause:(Supervisor.Non_finite { iter; index })
        "non-finite slice iterate");
  if not !ok then
    Error.fail ~engine ~time:tau1
      ~cause:(Supervisor.Newton_stall { iterations = !iter; residual = !last_res })
      "slice BE step Newton failed";
  x

let integrate ?damping ?coupling c ~b ~period2 ~steps ~y0 ~with_monodromy =
  let n = Mna.size c in
  let h2 = period2 /. float_of_int steps in
  let inv_h1 = match coupling with Some { h1; _ } -> 1.0 /. h1 | None -> 0.0 in
  let traj = Mat.make (steps + 1) n in
  Mat.set_row traj 0 y0;
  let mono = ref (if with_monodromy then Mat.identity n else Mat.make 0 0) in
  let x = ref (Vec.copy y0) in
  for k = 1 to steps do
    let tau1 = float_of_int k *. h2 in
    let x_prev = !x in
    (* the coupling reference is sampled at the arrival instant; the grid
       is periodic so step [steps] wraps to index 0 *)
    let x_next =
      be_step ?damping c ~b ~coupling ~h2 ~x_prev ~tau1 ~k_step:(k mod steps)
    in
    if with_monodromy then begin
      let j = Mna.companion c x_next ~a_c:((1.0 /. h2) +. inv_h1) ~a_g:1.0 in
      let c0 = Sparse.scale (1.0 /. h2) (Mna.jac_c_sparse c x_prev) in
      let f =
        try Sparse_lu.factor j
        with Lu.Singular ->
          Error.fail ~engine ~time:tau1 ~cause:Supervisor.Singular_jacobian
            "singular slice Jacobian"
      in
      mono := Sparse_lu.solve_mat f (Sparse.matmat c0 !mono)
    end;
    Mat.set_row traj k x_next;
    x := x_next
  done;
  (traj, !mono)

let solve_periodic_outcome ?budget ?(max_newton = 30) ?(tol = 1e-9) ?coupling c
    ~b ~period2 ~steps ~y0 =
  let n = Mna.size c in
  let attempt ~damping ~iter_cap =
    let y = ref (Vec.copy y0) in
    let result = ref None in
    let iters = ref 0 in
    let last_res = ref infinity in
    let cap = min max_newton iter_cap in
    try
      while !result = None && !iters < cap do
        incr iters;
        let traj, mono =
          integrate ~damping ?coupling c ~b ~period2 ~steps ~y0:!y
            ~with_monodromy:true
        in
        let yt = Mat.row traj steps in
        let r = Vec.sub yt !y in
        last_res := Vec.norm_inf r;
        if !last_res <= tol *. Float.max 1.0 (Vec.norm_inf yt) then
          result := Some (Mat.init steps n (fun k i -> Mat.get traj k i))
        else begin
          let a = Mat.sub mono (Mat.identity n) in
          if Faults.singular_now ~engine then raise Lu.Singular;
          let dy = Lu.solve (Lu.factor a) (Vec.neg r) in
          Vec.add_inplace dy !y
        end
      done;
      let stats =
        {
          Supervisor.iterations = !iters;
          residual = !last_res;
          krylov_iterations = 0;
        }
      in
      match !result with
      | Some traj -> Ok (traj, stats)
      | None ->
          Error
            ( Supervisor.Newton_stall { iterations = !iters; residual = !last_res },
              stats )
    with
    | Lu.Singular ->
        Error
          ( Supervisor.Singular_jacobian,
            {
              Supervisor.iterations = !iters;
              residual = !last_res;
              krylov_iterations = 0;
            } )
    | Error.No_convergence e ->
        Error
          ( e.Error.cause,
            {
              Supervisor.iterations = !iters;
              residual = !last_res;
              krylov_iterations = 0;
            } )
  in
  Supervisor.run ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Tighten_damping 1.0 ]
    ~attempt:(fun strategy ~iter_cap ->
      match strategy with
      | Supervisor.Tighten_damping d -> attempt ~damping:d ~iter_cap
      | _ -> attempt ~damping:5.0 ~iter_cap)
    ()

let solve_periodic ?max_newton ?tol ?coupling c ~b ~period2 ~steps ~y0 =
  match solve_periodic_outcome ?max_newton ?tol ?coupling c ~b ~period2 ~steps ~y0 with
  | Supervisor.Converged (traj, _) -> traj
  | Supervisor.Failed f -> Error.raise_failure ~engine f

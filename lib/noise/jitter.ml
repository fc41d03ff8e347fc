open Rfkit_la
open Rfkit_circuit
open Rfkit_rf

type ensemble = {
  crossing_index : int array;
  mean_times : float array;
  variances : float array;
}

(* one backward-Euler step with a frozen noise current on the right-hand
   side (Euler-Maruyama treatment of the diffusion term); every step of
   every trajectory stamps the same C/dt + G pattern, so the caller-held
   symbolic [cache] turns all but the first factor into refactors *)
let noisy_step ?perm ~cache c ~x_prev ~dt ~i_noise =
  let n = Mna.size c in
  let q0 = Mna.eval_q c x_prev in
  let x = Vec.copy x_prev in
  let ok = ref false in
  let iter = ref 0 in
  while (not !ok) && !iter < 50 do
    incr iter;
    let q1 = Mna.eval_q c x and f1 = Mna.eval_f c x in
    let r = Vec.create n in
    for i = 0 to n - 1 do
      r.(i) <- ((q1.(i) -. q0.(i)) /. dt) +. f1.(i) -. i_noise.(i)
    done;
    let j = Mna.companion c x ~a_c:(1.0 /. dt) ~a_g:1.0 in
    let dx = Sparse_lu.solve (Sparse_lu.factor_cached ?perm cache j) r in
    let step = Vec.norm_inf dx in
    if step <= 1e-12 *. Float.max 1.0 (Vec.norm_inf x) then ok := true
    else begin
      let scale = if step > 5.0 then 5.0 /. step else 1.0 in
      Vec.axpy (-.scale) dx x
    end
  done;
  x

let run ?(seed = 42) ?(trajectories = 24) ?(noise_scale = 1.0) orbit ~periods ~node =
  let c = orbit.Shooting.circuit in
  let n = Mna.size c in
  let idx = Mna.node c node in
  let m = orbit.Shooting.samples.Mat.rows in
  let dt = orbit.Shooting.period /. float_of_int m in
  let sources = Mna.noise_sources c in
  let patterns = Array.map (Mna.noise_pattern c) sources in
  let level =
    (* threshold = orbit mean of the observed node *)
    Stats.mean (Mat.col orbit.Shooting.samples idx)
  in
  let perm = Mna.ordering_perm c in
  let cache = ref None in
  let total_steps = periods * m in
  let max_crossings = periods - 1 in
  let crossing_times = Array.make_matrix trajectories max_crossings nan in
  for traj = 0 to trajectories - 1 do
    let rng = Rng.create (seed + (7919 * traj)) in
    let x = ref (Vec.copy orbit.Shooting.x0) in
    let t = ref 0.0 in
    let count = ref 0 in
    for _step = 1 to total_steps do
      (* one Newton-solved SDE step per poll: interrupts and deadlines
         abort the ensemble typed instead of after all trajectories *)
      Rfkit_solve.Deadline.check ();
      let i_noise = Vec.create n in
      Array.iteri
        (fun j (src : Device.noise_source) ->
          let psd = noise_scale *. src.Device.psd_at !x in
          if psd > 0.0 then begin
            let amp = sqrt (psd /. (2.0 *. dt)) *. Rng.gaussian rng in
            Vec.axpy amp patterns.(j) i_noise
          end)
        sources;
      let x_next = noisy_step ?perm ~cache c ~x_prev:!x ~dt ~i_noise in
      let t_next = !t +. dt in
      let v_prev = !x.(idx) and v_next = x_next.(idx) in
      if v_prev < level && v_next >= level && !count < max_crossings then begin
        let frac = (level -. v_prev) /. (v_next -. v_prev) in
        crossing_times.(traj).(!count) <- !t +. (frac *. dt);
        incr count
      end;
      x := x_next;
      t := t_next
    done
  done;
  (* keep crossings observed by every trajectory *)
  let complete = ref max_crossings in
  for traj = 0 to trajectories - 1 do
    let cnt = ref 0 in
    while !cnt < max_crossings && not (Float.is_nan crossing_times.(traj).(!cnt)) do
      incr cnt
    done;
    if !cnt < !complete then complete := !cnt
  done;
  let k = !complete in
  let mean_times = Array.make k 0.0 and variances = Array.make k 0.0 in
  for p = 0 to k - 1 do
    let col = Array.init trajectories (fun traj -> crossing_times.(traj).(p)) in
    mean_times.(p) <- Stats.mean col;
    variances.(p) <- Stats.variance col
  done;
  { crossing_index = Array.init k (fun i -> i + 1); mean_times; variances }

let fitted_slope e =
  let slope, _, r2 = Stats.linreg e.mean_times e.variances in
  (slope, r2)

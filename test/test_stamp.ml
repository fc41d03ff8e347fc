(* Stamping and refactor plans: the allocation-free MNA evaluation, the
   companion stamp, the plan-based sparse refactor and the hoisted AC
   stamps must reproduce the forms they replace bit for bit; the pattern
   check of [factor_cached]; output-node lookup that never creates a node;
   and an allocation pin on the transient and AC hot paths. *)

open Rfkit_la
open Rfkit_circuit

let bits x = Int64.bits_of_float x
let same_bits a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let same_cbits (a : Cx.t array) (b : Cx.t array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Cx.t) (y : Cx.t) -> bits x.re = bits y.re && bits x.im = bits y.im) a b

let same_pattern a b =
  let ra, ca, _ = Sparse.csr a and rb, cb, _ = Sparse.csr b in
  ra = rb && ca = cb

(* ---------------------------------------------------------- generators *)

(* RC-diode ladder (series R, shunt diode / load / cap per stage) with a
   series inductor, coupling caps between non-adjacent stages (entries C
   stamps but G does not) and stages inserted in a seeded order, so node
   numbering and fill vary from draw to draw *)
let ladder ~seed ~stages =
  let st = Random.State.make [| seed |] in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "n0" "0" (Wave.sine ~offset:1.5 0.3 10e6);
  let order = Array.init stages (fun k -> k + 1) in
  for i = stages - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let node k = Printf.sprintf "n%d" k in
  Array.iter
    (fun k ->
      if k = 1 + (stages / 2) then begin
        Netlist.inductor nl "L1" (node (k - 1)) "mid" 1e-9;
        Netlist.resistor nl (Printf.sprintf "R%d" k) "mid" (node k) 200.0
      end
      else Netlist.resistor nl (Printf.sprintf "R%d" k) (node (k - 1)) (node k) 200.0;
      Netlist.diode nl (Printf.sprintf "D%d" k) (node k) "0" ~is:1e-14 ~cj:1e-13 ();
      Netlist.resistor nl (Printf.sprintf "RS%d" k) (node k) "0"
        (1e3 +. Random.State.float st 1e5);
      Netlist.capacitor nl (Printf.sprintf "C%d" k) (node k) "0"
        (1e-13 +. Random.State.float st 1e-11))
    order;
  for i = 1 to stages / 3 do
    Netlist.capacitor nl (Printf.sprintf "CX%d" i) (node i) (node (i + 2)) 1e-13
  done;
  Mna.build nl

let point ~seed c =
  let st = Random.State.make [| seed; 7 |] in
  Vec.init (Mna.size c) (fun _ -> Random.State.float st 2.0 -. 0.5)

let arb_case =
  QCheck.make
    ~print:QCheck.Print.(pair int int)
    QCheck.Gen.(pair (int_range 0 10_000) (int_range 3 40))

(* ---------------------------------------------------------- properties *)

let prop_companion =
  QCheck.Test.make ~name:"companion = Sparse.add (scale a_c C) (scale a_g G), bit for bit"
    ~count:40 arb_case (fun (seed, stages) ->
      let c = ladder ~seed ~stages in
      let x = point ~seed c in
      let a_c = 1.0 /. (1e-12 +. float_of_int (seed mod 97) *. 1e-10) in
      List.for_all
        (fun a_g ->
          let j = Mna.companion c x ~a_c ~a_g in
          let reference =
            Sparse.add
              (Sparse.scale a_c (Mna.jac_c_sparse c x))
              (Sparse.scale a_g (Mna.jac_g_sparse c x))
          in
          let _, _, vj = Sparse.csr j and _, _, vr = Sparse.csr reference in
          same_pattern j reference && same_bits vj vr)
        [ 1.0; 0.5; -0.25 ])

(* the permuted refactor against the same elimination fed an explicitly
   [permute_sym]-ed matrix: plan gather vs transpose/permute per call *)
let prop_plan_refactor =
  QCheck.Test.make ~name:"plan refactor = transpose/permute refactor, bit for bit"
    ~count:40 arb_case (fun (seed, stages) ->
      let c = ladder ~seed ~stages in
      Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
      let a1 = Mna.companion c (point ~seed c) ~a_c:1e9 ~a_g:0.5 in
      let a2 = Mna.companion c (point ~seed:(seed + 1) c) ~a_c:1e9 ~a_g:0.5 in
      let n = Mna.size c in
      let b = Vec.init n (fun i -> 1.0 +. float_of_int (i mod 5)) in
      let with_perm =
        match Mna.ordering_perm c with
        | None -> true
        | Some p ->
            let s, _ = Sparse_lu.analyze ~perm:p a1 in
            let x = Sparse_lu.solve (Sparse_lu.refactor s a2) b in
            let s', _ = Sparse_lu.analyze (Sparse.permute_sym p a1) in
            let f' = Sparse_lu.refactor s' (Sparse.permute_sym p a2) in
            let px = Sparse_lu.solve f' (Array.init n (fun k -> b.(p.(k)))) in
            let x' = Array.make n 0.0 in
            Array.iteri (fun k v -> x'.(p.(k)) <- v) px;
            same_bits x x'
      in
      let without_perm =
        let s, f1 = Sparse_lu.analyze a1 in
        (* refactoring the analyzed values replays the analysis (zeros may
           differ in sign only, which Float.equal ignores) *)
        let replay = Sparse_lu.solve (Sparse_lu.refactor s a1) b in
        let analyzed = Sparse_lu.solve f1 b in
        (* shared index arrays and structurally equal copies take the
           same plan *)
        let rp, ci, v = Sparse.csr a2 in
        let copy =
          Sparse.of_csr ~rows:n ~cols:n ~row_ptr:(Array.copy rp) ~col_idx:(Array.copy ci)
            ~values:(Array.copy v)
        in
        Array.for_all2 Float.equal replay analyzed
        && same_bits
             (Sparse_lu.solve (Sparse_lu.refactor s a2) b)
             (Sparse_lu.solve (Sparse_lu.refactor s copy) b)
      in
      with_perm && without_perm)

let prop_ac_stamps =
  QCheck.Test.make ~name:"AC on hoisted stamps = Ac.system_sparse, bit for bit" ~count:40
    arb_case (fun (seed, stages) ->
      let c = ladder ~seed ~stages in
      let x = point ~seed c in
      let st = Ac.stamp c x in
      List.for_all
        (fun f ->
          let hoisted = Ac.system_of_stamps st f and reference = Ac.system_sparse c x f in
          let rh, ch, vh = Csparse.csr hoisted and rr, cr, vr = Csparse.csr reference in
          rh = rr && ch = cr && same_cbits vh vr)
        [ 1e3; 1.234e7 *. float_of_int (1 + (seed mod 13)); 5e9 ])

(* ------------------------------------------- factor_cached pattern check *)

(* same n and nnz, different pattern: diagonal + (0,1), then diagonal +
   (1,0). A cache keyed on nnz alone replays the first plan and drops the
   (1,0) coupling: x1 would read 0.4 instead of 0.4375. *)
let test_factor_cached_pattern () =
  let diag_plus extra = [ (0, 0, 4.0); (1, 1, 5.0); (2, 2, 4.0); extra ] in
  let a1 = Sparse.of_triplets ~rows:3 ~cols:3 (diag_plus (0, 1, 1.0)) in
  let a2 = Sparse.of_triplets ~rows:3 ~cols:3 (diag_plus (1, 0, -0.75)) in
  let b = [| 1.0; 2.0; 3.0 |] in
  let cache = ref None in
  ignore (Sparse_lu.factor_cached cache a1);
  let x = Sparse_lu.solve (Sparse_lu.factor_cached cache a2) b in
  Alcotest.(check (array (float 1e-15))) "real" [| 0.25; 0.4375; 0.75 |] x;
  let cx l = Csparse.of_triplets ~rows:3 ~cols:3 (List.map (fun (i, j, v) -> (i, j, Cx.re v)) l) in
  let ccache = ref None in
  ignore (Csparse_lu.factor_cached ccache (cx (diag_plus (0, 1, 1.0))));
  let z = Csparse_lu.solve (Csparse_lu.factor_cached ccache (cx (diag_plus (1, 0, -0.75)))) (Array.map Cx.re b) in
  Alcotest.(check (array (float 1e-15))) "complex" [| 0.25; 0.4375; 0.75 |]
    (Array.map (fun (v : Cx.t) -> v.re) z);
  Alcotest.(check bool) "refactor refuses a foreign pattern" true
    (let s, _ = Sparse_lu.analyze a1 in
     try
       ignore (Sparse_lu.refactor s a2);
       false
     with Invalid_argument _ -> true)

(* ----------------------------------------------------- node lookup *)

let test_node_lookup_never_creates () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 1.0);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.resistor nl "R2" "out" "0" 1e3;
  let c = Mna.build nl in
  let raises name = try ignore (Mna.node c name); false with Not_found -> true in
  Alcotest.(check bool) "unknown name raises" true (raises "typo");
  Alcotest.(check bool) "ground raises" true (raises "0");
  Alcotest.(check int) "lookup created no node" 2 (Netlist.node_count nl);
  Alcotest.(check (option int)) "find_node" (Some 1) (Mna.find_node c "out");
  Alcotest.(check (option int)) "find_node unknown" None (Mna.find_node c "typo");
  Alcotest.(check string) "node_name" "out" (Netlist.node_name nl 1);
  Alcotest.(check string) "i(V1) still labels the branch" "i(V1)" (Mna.unknown_label c 2)

let test_runner_unknown_node () =
  let deck = "V1 in 0 SIN(0 1 1meg)\nR1 in out 1k\nC1 out 0 1n\n.end\n" in
  let cfg node =
    {
      Rfkit_batch.Runner.deck_text = deck;
      node;
      domains = 1;
      budget = None;
      tol_scale = 1.0;
      ordering = Rfkit_struct.Order.Natural;
      stats = false;
      deadline = None;
      grace = 2.0;
    }
  in
  let job analysis = { Rfkit_batch.Expand.id = 0; corner = "nominal"; params = []; analysis } in
  let ac = Rfkit_batch.Spec.parse_analysis Rfkit_batch.Spec.default_defaults "ac" in
  let run node =
    let cache = Rfkit_batch.Cache.create ~enabled:false ~dir:"_stamp_test_cache_unused" () in
    let telemetry = Rfkit_batch.Telemetry.create ~progress:false ~total:0 () in
    let r = Rfkit_batch.Runner.run_one (cfg node) ~cache ~telemetry (job ac) in
    Rfkit_batch.Telemetry.close telemetry;
    Option.get r
  in
  let r = run "typo" in
  Alcotest.(check bool) "unknown node fails the job" true
    (r.Rfkit_batch.Runner.status = Rfkit_batch.Runner.Failed);
  let needle = {|unknown output node \"typo\"|} in
  let payload = r.Rfkit_batch.Runner.payload in
  let found =
    let n = String.length needle in
    let rec at i = i + n <= String.length payload && (String.sub payload i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("cause names the node: " ^ payload) true found;
  Alcotest.(check bool) "known node runs" true
    ((run "out").Rfkit_batch.Runner.status = Rfkit_batch.Runner.Ok)

(* ------------------------------------------------------ allocation pin *)

(* Minor-heap words on a fixed 50-stage RC-diode ladder (natural order):
   one trapezoidal step of a warm transient (symbolic analysis cached),
   and one AC frequency point of a sweep (a 9-point sweep less a 1-point
   one, over 8). Counts are deterministic for a given compiler. Before
   the allocation-free stamping they read 15,643 and 7,922 words (OCaml
   5.1.1); the bounds sit 4x below those. *)
let ladder_deck stages =
  let b = Buffer.create 4096 in
  Buffer.add_string b "* ladder\nV1 n0 0 SIN(1.5 0.3 10meg)\n";
  for k = 1 to stages do
    Printf.bprintf b "R%d n%d n%d 200\nD%d n%d 0 IS=1e-14\nRS%d n%d 0 10k\nC%d n%d 0 1p\n" k
      (k - 1) k k k k k k k
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let test_allocation_pin () =
  let c = Mna.build (fst (Deck.parse_string (ladder_deck 50))) in
  let x0 = Dc.solve c in
  let symb = ref None in
  let step x_prev t_prev =
    Tran.implicit_step ~symb c ~method_:Tran.Trapezoidal ~x_prev ~t_prev ~dt:1e-9
  in
  let x1 = step x0 0.0 in
  let tran_step = minor_words (fun () -> step x1 1e-9) in
  let sweep k =
    minor_words (fun () ->
        Ac.sweep ~x_op:x0 c ~source:"V1"
          ~freqs:(Array.init k (fun i -> 1e6 *. float_of_int (i + 1))))
  in
  let ac_point = (sweep 9 -. sweep 1) /. 8.0 in
  let within name words bound =
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f words <= %.0f" name words bound) true
      (words <= bound)
  in
  within "transient step" tran_step (15_643.0 /. 4.0);
  within "AC point" ac_point (7_922.0 /. 4.0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "stamp.plan",
      [
        tc "factor_cached checks the pattern" test_factor_cached_pattern;
        tc "node lookup never creates" test_node_lookup_never_creates;
        tc "runner: unknown output node" test_runner_unknown_node;
        tc "allocation pin" test_allocation_pin;
      ] );
    ( "stamp.properties",
      List.map
        (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]))
        [ prop_companion; prop_plan_refactor; prop_ac_stamps ] );
  ]

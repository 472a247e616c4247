(* Retiming: legality, behaviour preservation (Theorem 1's constructive
   form), register growth, and the structural invariants of Theorems 2-4. *)

let synth ?(seed = 61) ?(reset_line = false) () =
  Helpers.synthesize_small ~alg:Synth.Assign.Output_dominant
    ~script:Synth.Flow.Rugged ~reset_line ~seed ~states:8 ()

(* retimed-from-power-up must equal original-after-prefix on all outputs *)
let equivalent_modulo_prefix c re ~prefix_input ~prefix_len ~seed ~runs ~len =
  let rng = Random.State.make [| seed |] in
  let npi = Netlist.Node.num_pis c in
  let s1 = Sim.Scalar.create c and s2 = Sim.Scalar.create re in
  let ok = ref true in
  for _ = 1 to runs do
    Sim.Scalar.reset s1;
    Sim.Scalar.reset s2;
    let pv =
      match prefix_input with
      | Some v -> Sim.Vectors.to_v3 v
      | None -> Array.make npi Sim.Value3.Zero
    in
    for _ = 1 to prefix_len do
      ignore (Sim.Scalar.step s1 pv)
    done;
    for _ = 1 to len do
      let v = Sim.Vectors.to_v3 (Sim.Vectors.random_vector rng npi) in
      if Sim.Scalar.step s1 v <> Sim.Scalar.step s2 v then ok := false
    done
  done;
  !ok

let test_min_period_not_slower () =
  let r = synth () in
  let c = r.Synth.Flow.circuit in
  let re, period = Retime.Apply.retime_min_period c in
  Netlist.Check.assert_ok re;
  Alcotest.(check bool) "period <= original" true
    (period <= Netlist.Node.critical_path c +. 1e-9)

let qcheck_equivalence =
  Helpers.qcheck_case ~count:10 "retimed == original modulo prefix"
    QCheck2.Gen.(pair (int_range 100 120) bool)
    (fun (seed, reset_line) ->
      let r = synth ~seed ~reset_line () in
      let c = r.Synth.Flow.circuit in
      let prefix_input =
        if reset_line then begin
          let npi = Netlist.Node.num_pis c in
          let v = Array.make npi false in
          v.(npi - 1) <- true;
          Some v
        end
        else None
      in
      let re, _, plen =
        Retime.Apply.retime_aggressive ?prefix_input ~period_slack:0.15 c
      in
      Netlist.Check.is_well_formed re
      && equivalent_modulo_prefix c re ~prefix_input ~prefix_len:plen
           ~seed:(seed * 3) ~runs:4 ~len:50)

let test_aggressive_adds_registers () =
  (* across several seeds, deepening must add registers somewhere *)
  let grew = ref false in
  for seed = 70 to 78 do
    let r = synth ~seed () in
    let c = r.Synth.Flow.circuit in
    let re, _, _ = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
    if Netlist.Node.num_dffs re > Netlist.Node.num_dffs c then grew := true
  done;
  Alcotest.(check bool) "register growth observed" true !grew

let test_theorems_2_3_4 () =
  (* the gate-canonical structural measurement must agree exactly between
     original and retimed circuits on depth and max cycle length, and never
     count fewer cycles on the retimed circuit *)
  for seed = 80 to 84 do
    let r = synth ~seed () in
    let c = r.Synth.Flow.circuit in
    let re, _, _ = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
    let so = Analysis.Structural.analyze c in
    let sr = Analysis.Structural.analyze re in
    Alcotest.(check int)
      (Printf.sprintf "seq depth invariant (seed %d)" seed)
      so.Analysis.Structural.seq_depth sr.Analysis.Structural.seq_depth;
    Alcotest.(check int)
      (Printf.sprintf "max cycle length invariant (seed %d)" seed)
      so.Analysis.Structural.max_cycle_length
      sr.Analysis.Structural.max_cycle_length;
    Alcotest.(check bool)
      (Printf.sprintf "counted cycles grow (seed %d)" seed)
      true
      (sr.Analysis.Structural.num_cycles >= so.Analysis.Structural.num_cycles)
  done

let test_theorem1_testability_preserved () =
  (* Theorem 1, constructive form: a test set for the original, prefixed by
     P, detects the corresponding faults in the retimed circuit.  We check
     the aggregate consequence: fault coverage of (P-prefixed) original
     random vectors on the retimed circuit is at least as high as random
     vectors of the same length would suggest, and every original-circuit
     stem fault on a surviving gate has a counterpart detected. *)
  let r = synth ~seed:91 () in
  let c = r.Synth.Flow.circuit in
  let re, _, plen = Retime.Apply.retime_aggressive ~period_slack:0.15 c in
  let rng = Random.State.make [| 7 |] in
  let npi = Netlist.Node.num_pis c in
  let vectors =
    List.init 400 (fun _ -> Sim.Vectors.random_vector rng npi)
  in
  let prefix = List.init plen (fun _ -> Array.make npi false) in
  let faults_orig = Fsim.Collapse.list c in
  let faults_re = Fsim.Collapse.list re in
  let run_orig = Fsim.Engine.simulate c faults_orig vectors in
  let run_re = Fsim.Engine.simulate re faults_re (prefix @ vectors) in
  let cov faults (run : Fsim.Engine.run) =
    let d =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 run.Fsim.Engine.detected
    in
    100.0 *. float_of_int d /. float_of_int (Array.length faults)
  in
  let co = cov faults_orig run_orig and cr = cov faults_re run_re in
  Alcotest.(check bool)
    (Printf.sprintf "retimed coverage %.1f within 12%% of original %.1f" cr co)
    true
    (cr >= co -. 12.0)

let test_retime_idempotent_when_zero () =
  (* retiming with the identity lags must preserve the circuit's behaviour
     and never increase registers (chains are shared) *)
  let r = synth ~seed:95 () in
  let c = r.Synth.Flow.circuit in
  let g = Retime.Graph.of_netlist c in
  let zero = Array.make (Retime.Graph.num_gates g) 0 in
  let re = Retime.Apply.materialize g zero in
  Alcotest.(check int) "same registers" (Netlist.Node.num_dffs c)
    (Netlist.Node.num_dffs re);
  Alcotest.(check bool) "equivalent" true
    (equivalent_modulo_prefix c re ~prefix_input:None
       ~prefix_len:(Retime.Apply.prefix_length g zero)
       ~seed:5 ~runs:4 ~len:60)

let test_illegal_lags_rejected () =
  let r = synth ~seed:96 () in
  let g = Retime.Graph.of_netlist r.Synth.Flow.circuit in
  let bad = Array.make (Retime.Graph.num_gates g) 0 in
  (* find a gate with a zero-weight outgoing edge and force its lag down *)
  bad.(0) <- -1;
  if not (Retime.Graph.legal g bad) then
    Alcotest.check_raises "rejected"
      (Invalid_argument "Apply.materialize: illegal lags")
      (fun () -> ignore (Retime.Apply.materialize g bad))

let m_feas_relaxations = Obs.Metrics.counter "retime.feas.relaxations"

let test_feas_infeasible_period () =
  let r = synth ~seed:97 () in
  let g = Retime.Graph.of_netlist r.Synth.Flow.circuit in
  let before = Obs.Metrics.count m_feas_relaxations in
  Alcotest.(check bool) "absurd period infeasible" true
    (Retime.Solve.feas g ~period:0.1 = None);
  (* the early exit fires on the first pass that pushes a lag past its
     register distance to an output; a full-pass FEAS would make |V| - 1 *)
  let relaxations = Obs.Metrics.count m_feas_relaxations - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d relaxations (|V| = %d)" relaxations
       (Retime.Graph.num_gates g))
    true (relaxations <= 2)

(* ------------------------------------------------- full-pass reference *)

(* The retimer before the flat-edge rewrite, kept word for word (metrics
   calls dropped) as the oracle for [Solve.feas] and [Solve.deepen]:
   node-kind lags, list-built adjacency, every FEAS probe runs up to |V| - 1
   passes, and every deepening move re-checks every edge. *)
module Reference = struct
  open Retime

  let lag g r node =
    if node < 0 then 0
    else
      match (Netlist.Node.node g.Graph.circuit node).Netlist.Node.kind with
      | Netlist.Node.Gate _ -> r.(g.Graph.vertex_of_gate.(node))
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> 0

  let retimed_weight g r (e : Graph.edge) =
    e.Graph.weight + lag g r e.Graph.dst_node - lag g r e.Graph.src_node

  let legal g r =
    Array.for_all (fun e -> retimed_weight g r e >= 0) g.Graph.edges

  let total_registers_shared g r =
    let best = Hashtbl.create 97 in
    Array.iter
      (fun (e : Graph.edge) ->
        let w = retimed_weight g r e in
        let cur = try Hashtbl.find best e.Graph.src_node with Not_found -> 0 in
        if w > cur then Hashtbl.replace best e.Graph.src_node w)
      g.Graph.edges;
    Hashtbl.fold (fun _ w acc -> acc + w) best 0

  let arrivals g r =
    let n = Graph.num_gates g in
    let delta = Array.make n 0.0 in
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    Array.iter
      (fun (e : Graph.edge) ->
        if e.Graph.dst_node >= 0 then begin
          let w = retimed_weight g r e in
          if w <= 0 then begin
            let dst_v = g.Graph.vertex_of_gate.(e.Graph.dst_node) in
            match
              (Netlist.Node.node g.Graph.circuit e.Graph.src_node)
                .Netlist.Node.kind
            with
            | Netlist.Node.Gate _ ->
              let src_v = g.Graph.vertex_of_gate.(e.Graph.src_node) in
              indeg.(dst_v) <- indeg.(dst_v) + 1;
              succs.(src_v) <- dst_v :: succs.(src_v)
            | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ()
          end
        end)
      g.Graph.edges;
    let queue = Queue.create () in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then Queue.add v queue
    done;
    let processed = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr processed;
      delta.(v) <- delta.(v) +. g.Graph.delays.(v);
      List.iter
        (fun s ->
          if delta.(v) > delta.(s) then delta.(s) <- delta.(v);
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s queue)
        succs.(v)
    done;
    if !processed < n then None else Some delta

  let period_of g r =
    match arrivals g r with
    | None -> infinity
    | Some delta -> Array.fold_left max 0.0 delta

  let feas g ~period:p =
    let n = Graph.num_gates g in
    let r = Array.make n 0 in
    let rec loop i =
      match arrivals g r with
      | None -> None
      | Some delta ->
        let worst = Array.fold_left max 0.0 delta in
        if worst <= p +. 1e-9 then
          if legal g r then Some (Array.copy r) else None
        else if i >= n then None
        else begin
          for v = 0 to n - 1 do
            if delta.(v) > p +. 1e-9 then r.(v) <- r.(v) + 1
          done;
          loop (i + 1)
        end
    in
    loop 0

  let deepen g r ~period ~max_lag ~max_regs =
    let n = Graph.num_gates g in
    let try_move v =
      if r.(v) >= max_lag then false
      else begin
        r.(v) <- r.(v) + 1;
        let ok =
          legal g r
          && period_of g r <= period +. 1e-9
          && total_registers_shared g r <= max_regs
        in
        if not ok then r.(v) <- r.(v) - 1;
        ok
      end
    in
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < max_lag do
      improved := false;
      incr rounds;
      for v = 0 to n - 1 do
        if try_move v then improved := true
      done
    done
end

(* Periods from far below the largest gate delay (infeasible) up to the
   original period, where the zero retiming is feasible. *)
let period_sweep g =
  let zero = Array.make (Retime.Graph.num_gates g) 0 in
  let hi = Reference.period_of g zero in
  let lo = Array.fold_left max 0.0 g.Retime.Graph.delays in
  0.1 :: (lo *. 0.5)
  :: List.init 13 (fun k -> lo +. ((hi -. lo) *. float_of_int k /. 12.0))

(* The max_lag / max_regs_factor / period_slack sets Core.Flow deepens
   with: the Table 2 flow and the three Table 7 partial retimings. *)
let flow_deepen_params = [ (8, 6, 0.12); (1, 2, 0.04); (2, 3, 0.08); (4, 4, 0.10) ]

(* Disagreements of the new FEAS and deepening with the reference, as
   printable descriptions; empty when they agree bit for bit. *)
let oracle_mismatches g =
  let feas =
    List.filter_map
      (fun p ->
        let want = Reference.feas g ~period:p
        and got = Retime.Solve.feas g ~period:p in
        if want = got then None else Some (Printf.sprintf "feas at %h" p))
      (period_sweep g)
  in
  let zero = Array.make (Retime.Graph.num_gates g) 0 in
  let original = Reference.period_of g zero in
  let base_regs = max 1 (Reference.total_registers_shared g zero) in
  let r0, _ = Retime.Solve.min_period g in
  let deepen =
    List.filter_map
      (fun (max_lag, factor, slack) ->
        let period = original *. (1.0 +. slack)
        and max_regs = base_regs * factor in
        let want = Array.copy r0 and got = Array.copy r0 in
        Reference.deepen g want ~period ~max_lag ~max_regs;
        Retime.Solve.deepen g got ~period ~max_lag ~max_regs;
        if want = got && Reference.period_of g want = Retime.Solve.period_of g got
        then None
        else Some (Printf.sprintf "deepen %d/%d/%g" max_lag factor slack))
      flow_deepen_params
  in
  feas @ deepen

let qcheck_oracle =
  Helpers.qcheck_case ~count:8 "FEAS and deepen match the full-pass reference"
    QCheck2.Gen.(
      triple (int_range 200 400) (int_range 4 10)
        (oneofl
           Synth.Assign.[ Input_dominant; Output_dominant; Combined ]))
    (fun (seed, states, alg) ->
      let r = Helpers.synthesize_small ~alg ~seed ~states () in
      match oracle_mismatches (Retime.Graph.of_netlist r.Synth.Flow.circuit) with
      | [] -> true
      | l -> QCheck2.Test.fail_report (String.concat ", " l))

(* x -> g1 -> g2 -> g3 -> DFF -> g4 -> PO, unit inverter delays: period 3,
   and period 2 is met only by moving the register back across g3, which
   leaves g3 with lag 1, exactly its register distance to the output. *)
let pipeline () =
  let b = Netlist.Build.create () in
  let inv name src = Netlist.Build.add_gate b Netlist.Node.Not name [| src |] in
  let g3 = inv "g3" (inv "g2" (inv "g1" (Netlist.Build.add_pi b "x"))) in
  let d = Netlist.Build.add_dff b "d" in
  Netlist.Build.connect_dff b d g3;
  Netlist.Build.add_po b "y" (inv "g4" d);
  Netlist.Build.finalize b

let test_oracle () =
  let g = Retime.Graph.of_netlist (pipeline ()) in
  Alcotest.(check (option (array int))) "pipeline retimes to period 2"
    (Some [| 0; 0; 1; 0 |])
    (Retime.Solve.feas g ~period:2.0);
  let p = Core.Flow.pair "dk16" Synth.Assign.Input_dominant Synth.Flow.Delay in
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list string)) (name ^ " agrees with the reference") []
        (oracle_mismatches g))
    [ ("pipeline", g); ("dk16.ji.sd", Retime.Graph.of_netlist p.Core.Flow.original) ]

(* ------------------------------------------------------ golden circuits *)

(* Structural hash and period of every retimed circuit of the paper flow
   whose synthesis is fast: eleven Table 2 pairs (all but s820.*.sr and
   s832.*.sr) and the three Table 7 partial retimings of s510.jo.sr.  A
   retimer change that moves any of them changes the reproduced tables. *)
let table2_golden =
  let ji = Synth.Assign.Input_dominant
  and jo = Synth.Assign.Output_dominant
  and jc = Synth.Assign.Combined in
  let sd = Synth.Flow.Delay and sr = Synth.Flow.Rugged in
  [
    ("dk16", ji, sd, "a72d80bb95813fef", 0x1.e4cccccccccccp+3);
    ("pma", jo, sd, "5f2e62c7fa05a33e", 0x1.dccccccccccccp+3);
    ("s510", jc, sd, "06589e7027288744", 0x1.de66666666667p+3);
    ("s510", jc, sr, "1f1431d3cd5fdb26", 0x1.f19999999999ap+3);
    ("s510", ji, sd, "f0a8e8d2e5b2def9", 0x1.d333333333334p+3);
    ("s510", ji, sr, "609f2fd28970e4e4", 0x1.e4ccccccccccdp+3);
    ("s510", jo, sr, "1c2e749cca36b81e", 0x1.1ccccccccccccp+4);
    ("s820", jc, sd, "e5e70cef0b5169d0", 0x1.9cccccccccccdp+3);
    ("s820", jo, sd, "13469e5ee1c38187", 0x1.ap+3);
    ("scf", ji, sd, "a2bf2f42f62af4b2", 0x1.18p+4);
    ("scf", jo, sd, "97ec7e1c8dde8436", 0x1.1733333333333p+4);
  ]

let table7_golden =
  [
    ("s510.jo.sr.re.v1", "9cfc134fb1a95fc9", 0x1.fcccccccccccdp+3);
    ("s510.jo.sr.re.v2", "6646f13ba1d44cfe", 0x1.08ccccccccccdp+4);
    ("s510.jo.sr.re.v3", "0ec1eb50fc1945db", 0x1.0f33333333333p+4);
  ]

let test_golden_retimings () =
  let check name c period (hash, want) =
    Alcotest.(check string) (name ^ " structural hash") hash
      (Netlist.Structhash.circuit c);
    Alcotest.(check (float 0.0)) (name ^ " period") want period
  in
  List.iter
    (fun (fsm, alg, script, hash, period) ->
      let p = Core.Flow.pair fsm alg script in
      check p.Core.Flow.name p.Core.Flow.retimed p.Core.Flow.retimed_period
        (hash, period))
    table2_golden;
  let versions = Core.Flow.sensitivity_versions () in
  List.iter
    (fun (name, hash, period) ->
      match List.find_opt (fun (n, _, _) -> n = name) versions with
      | Some (_, c, p) -> check name c p (hash, period)
      | None -> Alcotest.failf "Table 7 version %s missing" name)
    table7_golden

let suite =
  [
    Alcotest.test_case "min-period not slower" `Quick test_min_period_not_slower;
    qcheck_equivalence;
    Alcotest.test_case "aggressive retime adds registers" `Quick
      test_aggressive_adds_registers;
    Alcotest.test_case "Theorems 2/3/4 invariants" `Slow test_theorems_2_3_4;
    Alcotest.test_case "Theorem 1 testability preserved" `Quick
      test_theorem1_testability_preserved;
    Alcotest.test_case "identity retiming" `Quick
      test_retime_idempotent_when_zero;
    Alcotest.test_case "illegal lags rejected" `Quick test_illegal_lags_rejected;
    Alcotest.test_case "infeasible period" `Quick test_feas_infeasible_period;
    qcheck_oracle;
    Alcotest.test_case "FEAS/deepen oracle on dk16.ji.sd and a pipeline"
      `Quick test_oracle;
    Alcotest.test_case "golden retimed circuits" `Quick test_golden_retimings;
  ]

(* ROBDD engine and symbolic reachability: every operator is checked
   against exhaustive truth tables (canonicity makes expected-vs-actual a
   plain edge comparison), and Symreach is cross-checked bit-for-bit
   against explicit enumeration wherever the latter is feasible. *)

let nvars = 4
let nminterms = 1 lsl nvars
let table_mask = (1 lsl nminterms) - 1

(* Build the BDD of a truth table (bit m of [table] = value on minterm m,
   variable v of minterm m = bit v of m) as an OR of minterm cubes. *)
let of_table man table =
  let f = ref Bdd.zero in
  for m = 0 to nminterms - 1 do
    if (table lsr m) land 1 = 1 then begin
      let cube = ref Bdd.one in
      for v = 0 to nvars - 1 do
        let lit = Bdd.var man v in
        let lit = if (m lsr v) land 1 = 1 then lit else Bdd.not_ lit in
        cube := Bdd.and_ man !cube lit
      done;
      f := Bdd.or_ man !f !cube
    end
  done;
  !f

let popcount table =
  let rec go acc t = if t = 0 then acc else go (acc + (t land 1)) (t lsr 1) in
  go 0 table

(* Truth-table images of the operators under test. *)
let tbl_restrict table ~var ~value =
  let out = ref 0 in
  for m = 0 to nminterms - 1 do
    let m' =
      if value then m lor (1 lsl var) else m land lnot (1 lsl var)
    in
    if (table lsr m') land 1 = 1 then out := !out lor (1 lsl m)
  done;
  !out

let tbl_compose table ~var gtable =
  let out = ref 0 in
  for m = 0 to nminterms - 1 do
    let gv = (gtable lsr m) land 1 = 1 in
    let m' = if gv then m lor (1 lsl var) else m land lnot (1 lsl var) in
    if (table lsr m') land 1 = 1 then out := !out lor (1 lsl m)
  done;
  !out

let random_tables n =
  let rng = Random.State.make [| 20260806 |] in
  List.init n (fun _ -> Random.State.int rng (table_mask + 1))

let test_table_roundtrip () =
  let man = Bdd.create () in
  List.iter
    (fun table ->
      let f = of_table man table in
      (* eval reproduces every minterm *)
      for m = 0 to nminterms - 1 do
        let got = Bdd.eval man f (fun v -> (m lsr v) land 1 = 1) in
        Alcotest.(check bool)
          (Printf.sprintf "table %x minterm %d" table m)
          ((table lsr m) land 1 = 1)
          got
      done;
      (* model count = popcount, in both the float and int counters *)
      Alcotest.(check (float 0.0))
        "sat_count"
        (float_of_int (popcount table))
        (Bdd.sat_count man ~nvars f);
      Alcotest.(check (option int))
        "sat_count_int" (Some (popcount table))
        (Bdd.sat_count_int man ~nvars f))
    (random_tables 50)

let test_operators_canonical () =
  let man = Bdd.create () in
  let tables = random_tables 40 in
  let check name expected actual =
    Alcotest.(check bool) name true (Bdd.equal (of_table man expected) actual)
  in
  List.iteri
    (fun i t1 ->
      let t2 = List.nth tables (List.length tables - 1 - i) in
      let f = of_table man t1 and g = of_table man t2 in
      check "and" (t1 land t2) (Bdd.and_ man f g);
      check "or" (t1 lor t2) (Bdd.or_ man f g);
      check "xor" (t1 lxor t2 land table_mask) (Bdd.xor_ man f g);
      check "xnor" (lnot (t1 lxor t2) land table_mask) (Bdd.xnor_ man f g);
      check "not" (lnot t1 land table_mask) (Bdd.not_ f);
      check "ite" (t1 land t2 lor (lnot t1 land table_mask))
        (Bdd.ite man f g Bdd.one);
      (* complement-edge invariants *)
      Alcotest.(check bool) "double negation" true
        (Bdd.equal f (Bdd.not_ (Bdd.not_ f)));
      Alcotest.(check bool) "f xor f" true (Bdd.is_false (Bdd.xor_ man f f));
      Alcotest.(check bool) "ite f 1 0" true
        (Bdd.equal f (Bdd.ite man f Bdd.one Bdd.zero)))
    tables

let test_quantify_restrict_compose () =
  let man = Bdd.create () in
  let tables = random_tables 30 in
  let check name expected actual =
    Alcotest.(check bool) name true (Bdd.equal (of_table man expected) actual)
  in
  List.iteri
    (fun i t1 ->
      let t2 = List.nth tables (List.length tables - 1 - i) in
      let f = of_table man t1 and g = of_table man t2 in
      for v = 0 to nvars - 1 do
        check "restrict v=0" (tbl_restrict t1 ~var:v ~value:false)
          (Bdd.restrict man f ~var:v ~value:false);
        check "restrict v=1" (tbl_restrict t1 ~var:v ~value:true)
          (Bdd.restrict man f ~var:v ~value:true);
        check "compose"
          (tbl_compose t1 ~var:v t2)
          (Bdd.compose man f ~var:v g)
      done;
      (* exists over the even variables, pointwise and fused *)
      let pred v = v land 1 = 0 in
      let tbl_ex =
        let t = ref t1 in
        for v = 0 to nvars - 1 do
          if pred v then
            t := tbl_restrict !t ~var:v ~value:false
                 lor tbl_restrict !t ~var:v ~value:true
        done;
        !t
      in
      check "exists" tbl_ex (Bdd.exists man pred f);
      Alcotest.(check bool) "and_exists = exists(and)" true
        (Bdd.equal
           (Bdd.exists man pred (Bdd.and_ man f g))
           (Bdd.and_exists man pred f g)))
    tables

let test_rename () =
  let man = Bdd.create () in
  List.iter
    (fun table ->
      let f = of_table man table in
      (* shift every variable up by 3: order-preserving, so the renamed
         function evaluates identically under the shifted assignment *)
      let r = Bdd.rename man (fun v -> v + 3) f in
      for m = 0 to nminterms - 1 do
        Alcotest.(check bool) "shifted eval"
          (Bdd.eval man f (fun v -> (m lsr v) land 1 = 1))
          (Bdd.eval man r (fun v -> (m lsr (v - 3)) land 1 = 1))
      done;
      Alcotest.(check (list int)) "shifted support"
        (List.map (fun v -> v + 3) (Bdd.support man f))
        (Bdd.support man r))
    (random_tables 20);
  (* an order-breaking map must be rejected *)
  let x0 = Bdd.var man 0 and x1 = Bdd.var man 1 in
  let f = Bdd.and_ man x0 x1 in
  Alcotest.check_raises "non-monotone rename"
    (Invalid_argument "Bdd.rename: map must preserve the variable order")
    (fun () -> ignore (Bdd.rename man (fun v -> 1 - v) f))

let test_node_limit () =
  let man = Bdd.create ~max_nodes:8 () in
  Alcotest.check_raises "budget exhausted" Bdd.Node_limit (fun () ->
      (* parity of 16 variables needs far more than 8 nodes *)
      let f = ref Bdd.zero in
      for v = 0 to 15 do
        f := Bdd.xor_ man !f (Bdd.var man v)
      done;
      ignore !f);
  (* the budget counts the terminal: the limit fires on the node that
     would make [max_nodes] *)
  Alcotest.(check int) "nodes at the limit" 7 (Bdd.num_nodes man)

let test_create_packable () =
  (* every edge must stay below 2^31 for the two-int table entries *)
  ignore (Bdd.create ~max_nodes:(1 lsl 30) ());
  match Bdd.create ~max_nodes:((1 lsl 30) + 1) () with
  | _ -> Alcotest.fail "an unpackable max_nodes was accepted"
  | exception Invalid_argument _ -> ()

(* A fixed operation mix that grows one manager past 60k nodes, so the
   unique table, the ite cache and the per-call memos all resize several
   times: ripple-carry sum bits of x + y with all of x above all of y
   (exponential in this order), tied to fresh output variables, then
   every quantifier and substitution kernel on the result. *)
let kernel_workload man =
  let n = 10 in
  let x i = Bdd.var man i and y i = Bdd.var man (n + i) in
  let carry = ref Bdd.zero in
  let sums =
    Array.init n (fun i ->
        let half = Bdd.xor_ man (x i) (y i) in
        let s = Bdd.xor_ man half !carry in
        carry :=
          Bdd.or_ man (Bdd.and_ man (x i) (y i)) (Bdd.and_ man !carry half);
        s)
  in
  let rel = ref Bdd.one in
  Array.iteri
    (fun i s ->
      rel := Bdd.and_ man !rel (Bdd.xnor_ man (Bdd.var man ((2 * n) + i)) s))
    sums;
  let rel = !rel in
  let even_y_clear = ref Bdd.one in
  for i = 0 to n - 1 do
    if i land 1 = 0 then
      even_y_clear := Bdd.and_ man !even_y_clear (Bdd.not_ (y i))
  done;
  let img =
    Bdd.and_exists man (fun v -> v >= n && v < 2 * n) rel !even_y_clear
  in
  let shifted = Bdd.rename man (fun v -> if v < n then v else v + n) img in
  let ex = Bdd.exists man (fun v -> v >= 2 * n && v land 1 = 1) img in
  let rs = Bdd.restrict man rel ~var:n ~value:true in
  let cp = Bdd.compose man rel ~var:(2 * n) sums.(n - 1) in
  [ img; shifted; ex; rs; cp ]

(* Golden counters of the kernel, recorded from the Hashtbl-based kernel
   this one replaced.  Any change to which nodes are built, in which
   order, or to when the ite cache hits moves them — and with them where
   a per-fault budget raises [Node_limit], i.e. which faults C4 proves. *)
let test_kernel_identity () =
  let check name man ~nodes ~lookups ~hits =
    let s = Bdd.stats man in
    Alcotest.(check (list int))
      (name ^ ": nodes, cache lookups, cache hits")
      [ nodes; lookups; hits ]
      [ Bdd.num_nodes man; s.Bdd.cache_lookups; s.Bdd.cache_hits ]
  in
  let man = Bdd.create () in
  let results = kernel_workload man in
  check "op mix" man ~nodes:63145 ~lookups:101258 ~hits:46303;
  Alcotest.(check (list int))
    "op mix result edges"
    [ 83728; 86450; 88388; 90435; 126291 ]
    (List.map (fun (e : Bdd.t) -> (e :> int)) results);
  let e = Fsm.Benchmarks.find "s510" in
  let r =
    Synth.Flow.synthesize ~reset_line:e.Fsm.Benchmarks.has_reset_line
      ~algorithm:Synth.Assign.Input_dominant ~script:Synth.Flow.Delay
      (Fsm.Benchmarks.machine e)
  in
  let s = Analysis.Symreach.explore r.Synth.Flow.circuit in
  check "symreach s510" s.Analysis.Symreach.man ~nodes:10619 ~lookups:19896
    ~hits:4139

(* Canonicity across table growth: functions built while the tables are
   small are rebuilt minterm by minterm from their truth tables after
   every table has doubled several times; equal truth tables must give
   equal edges. *)
let qcheck_canonical_growth =
  let nv = 8 in
  Helpers.qcheck_case ~count:25 "canonical across table growth"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let man = Bdd.create () in
      let pool = ref (List.init nv (Bdd.var man)) in
      let pick () =
        List.nth !pool (Random.State.int rng (List.length !pool))
      in
      for _ = 1 to 60 do
        let f = pick () and g = pick () and h = pick () in
        let r =
          match Random.State.int rng 4 with
          | 0 -> Bdd.and_ man f (Bdd.not_ g)
          | 1 -> Bdd.or_ man f g
          | 2 -> Bdd.xor_ man f g
          | _ -> Bdd.ite man f g h
        in
        pool := r :: !pool
      done;
      (* the ten newest functions and the literals *)
      let funcs = List.filteri (fun i _ -> i < 10 || i >= 60) !pool in
      let tables =
        List.map
          (fun f ->
            Array.init (1 lsl nv) (fun m ->
                Bdd.eval man f (fun v -> (m lsr v) land 1 = 1)))
          funcs
      in
      (* a parity chain over fresh variables doubles the unique table
         and the ite cache several times over *)
      let parity = ref Bdd.zero in
      for v = nv + 3000 downto nv do
        parity := Bdd.xor_ man (Bdd.var man v) !parity
      done;
      let rebuild table =
        let f = ref Bdd.zero in
        Array.iteri
          (fun m on ->
            if on then begin
              let cube = ref Bdd.one in
              for v = nv - 1 downto 0 do
                let lit = Bdd.var man v in
                cube :=
                  Bdd.and_ man !cube
                    (if (m lsr v) land 1 = 1 then lit else Bdd.not_ lit)
              done;
              f := Bdd.or_ man !f !cube
            end)
          table;
        !f
      in
      let rebuilt = List.map rebuild tables in
      List.for_all2 Bdd.equal funcs rebuilt)

let test_sat_count_wide () =
  let man = Bdd.create () in
  let f = Bdd.var man 0 in
  (* one fixed variable out of 65 free ones: 2^64 models *)
  Alcotest.(check (float 0.0))
    "2^64" (ldexp 1.0 64)
    (Bdd.sat_count man ~nvars:65 f);
  Alcotest.(check (option int)) "past int range" None
    (Bdd.sat_count_int man ~nvars:65 f);
  Alcotest.(check (option int))
    "within int range" (Some 1)
    (Bdd.sat_count_int man ~nvars:4 (of_table man 0x8000))

(* Small counts over a wide variable space: negated literals create
   complement edges, and a subtraction-based counter (2^k -. x) would
   cancel catastrophically once both operands pass 2^53.  These must stay
   exact for any nvars. *)
let test_sat_count_small_wide () =
  let man = Bdd.create () in
  let nvars = 60 in
  (* a single minterm over 60 variables, half the literals negated *)
  let minterm = ref Bdd.one in
  for v = 0 to nvars - 1 do
    let lit = Bdd.var man v in
    let lit = if v land 1 = 0 then lit else Bdd.not_ lit in
    minterm := Bdd.and_ man !minterm lit
  done;
  Alcotest.(check (float 0.0))
    "one minterm in 2^60" 1.0
    (Bdd.sat_count man ~nvars !minterm);
  (* three disjoint minterms, differing in the low two variables *)
  let shifted bits =
    let f = ref Bdd.one in
    for v = 0 to nvars - 1 do
      let lit = Bdd.var man v in
      let on = if v < 2 then (bits lsr v) land 1 = 1 else v land 1 = 0 in
      f := Bdd.and_ man !f (if on then lit else Bdd.not_ lit)
    done;
    !f
  in
  let three =
    Bdd.or_ man (shifted 0) (Bdd.or_ man (shifted 1) (shifted 2))
  in
  Alcotest.(check (float 0.0))
    "three states over 60 bits" 3.0
    (Bdd.sat_count man ~nvars three);
  Alcotest.(check (option int))
    "int counter agrees" (Some 3)
    (Bdd.sat_count_int man ~nvars three);
  (* the complement: 2^60 - 3, exactly representable in a float *)
  Alcotest.(check (float 0.0))
    "complement count" (ldexp 1.0 nvars -. 3.0)
    (Bdd.sat_count man ~nvars (Bdd.not_ three))

(* ------------------------------------------------- symbolic reachability *)

let check_against_explicit name c =
  let r = Analysis.Reach.explore ~name c in
  let s = (Analysis.Symreach.explore c).Analysis.Symreach.summary in
  Alcotest.(check (float 0.0))
    (name ^ " valid states")
    (float_of_int r.Analysis.Reach.valid_states)
    s.Analysis.Symreach.valid_states;
  Alcotest.(check (option int))
    (name ^ " integer count")
    (Some r.Analysis.Reach.valid_states)
    s.Analysis.Symreach.valid_states_int;
  Alcotest.(check (float 0.0))
    (name ^ " density (bit-identical)")
    (Analysis.Reach.density r)
    (Analysis.Symreach.density s)

let test_symreach_toy () =
  let c = Helpers.toy_circuit () in
  check_against_explicit "toy" c;
  let r = Analysis.Reach.explore c in
  let s = Analysis.Symreach.explore c in
  (* membership agrees state by state *)
  for code = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "state %d membership" code)
      (Analysis.Reach.is_valid r code)
      (Analysis.Symreach.is_valid s
         (Array.init 2 (fun j -> (code lsr j) land 1 = 1)))
  done;
  (* can_take on a DFF output asks whether some reachable state sets that
     bit; cross-check against the explicit state set *)
  Array.iteri
    (fun i id ->
      List.iter
        (fun value ->
          let explicit =
            Hashtbl.fold
              (fun code () acc ->
                acc || (code lsr i) land 1 = (if value then 1 else 0))
              r.Analysis.Reach.states false
          in
          Alcotest.(check bool)
            (Printf.sprintf "can_take dff %d = %b" i value)
            explicit
            (Analysis.Symreach.can_take s id value))
        [ false; true ])
    c.Netlist.Node.dffs

let test_symreach_synthesized () =
  let r = Helpers.synthesize_small ~seed:45 ~states:7 () in
  check_against_explicit "toyfsm" r.Synth.Flow.circuit

(* A 65-stage shift register: beyond the explicit packed-int cap, and all
   2^65 states are reachable (beyond exact integer range). *)
let shift_register n =
  let b = Netlist.Build.create () in
  let si = Netlist.Build.add_pi b "si" in
  let qs =
    Array.init n (fun i ->
        Netlist.Build.add_dff b ~init:false (Printf.sprintf "q%d" i))
  in
  Array.iteri
    (fun i q ->
      Netlist.Build.connect_dff b q (if i = 0 then si else qs.(i - 1)))
    qs;
  Netlist.Build.add_po b "so" qs.(n - 1);
  Netlist.Build.finalize b

let test_symreach_shift65 () =
  let c = shift_register 65 in
  Alcotest.(check bool) "explicit infeasible" false (Analysis.Reach.feasible c);
  (try
     ignore (Analysis.Reach.explore ~name:"shift65" c);
     Alcotest.fail "explicit explore should have raised"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       "error points at the symbolic engine" true
       (Helpers.contains_substring msg "--symbolic"));
  let s = (Analysis.Symreach.explore c).Analysis.Symreach.summary in
  Alcotest.(check (float 0.0)) "2^65 states" (ldexp 1.0 65)
    s.Analysis.Symreach.valid_states;
  Alcotest.(check (option int)) "count past integer range" None
    s.Analysis.Symreach.valid_states_int;
  Alcotest.(check int) "depth = pipeline length" 65
    s.Analysis.Symreach.depth;
  Alcotest.(check (float 0.0)) "density 1" 1.0 (Analysis.Symreach.density s)

(* 10 PIs exceed the explicit per-state enumeration cap; 2 DFFs keep a
   scalar brute force over 2^10 inputs x 4 states cheap. *)
let test_symreach_wide_inputs () =
  let b = Netlist.Build.create () in
  let pis = Array.init 10 (fun i -> Netlist.Build.add_pi b (Printf.sprintf "p%d" i)) in
  let q0 = Netlist.Build.add_dff b "q0" in
  let q1 = Netlist.Build.add_dff b "q1" in
  let conj = Netlist.Build.add_gate b Netlist.Node.And "conj" pis in
  Netlist.Build.connect_dff b q0 conj;
  Netlist.Build.connect_dff b q1 q0;
  Netlist.Build.add_po b "z" q1;
  let c = Netlist.Build.finalize b in
  Alcotest.(check bool) "explicit infeasible" false (Analysis.Reach.feasible c);
  (try
     ignore (Analysis.Reach.explore ~name:"wide" c);
     Alcotest.fail "explicit explore should have raised"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       "error names the circuit" true
       (Helpers.contains_substring msg "wide"));
  (* brute force with the scalar simulator *)
  let sim = Sim.Scalar.create c in
  let reach = Hashtbl.create 7 in
  let rec go code =
    if not (Hashtbl.mem reach code) then begin
      Hashtbl.add reach code ();
      for input = 0 to (1 lsl 10) - 1 do
        let state =
          Array.init 2 (fun j -> Sim.Value3.of_bool ((code lsr j) land 1 = 1))
        in
        let inputs =
          Array.init 10 (fun i -> Sim.Value3.of_bool ((input lsr i) land 1 = 1))
        in
        let _, next = Sim.Scalar.transition sim ~state ~inputs in
        let nc = ref 0 in
        Array.iteri
          (fun j v -> if v = Sim.Value3.One then nc := !nc lor (1 lsl j))
          next;
        go !nc
      done
    end
  in
  go 0;
  let s = (Analysis.Symreach.explore c).Analysis.Symreach.summary in
  Alcotest.(check (option int))
    "matches scalar brute force"
    (Some (Hashtbl.length reach))
    s.Analysis.Symreach.valid_states_int

let test_symreach_node_limit () =
  let c = shift_register 8 in
  Alcotest.check_raises "budget too small" Bdd.Node_limit (fun () ->
      ignore (Analysis.Symreach.explore ~max_nodes:4 c))

(* Every seed benchmark pair within the explicit caps, bit-for-bit. *)
let test_symreach_benchmarks () =
  List.iter
    (fun (fsm, alg, script) ->
      let p = Core.Flow.pair fsm alg script in
      List.iter
        (fun (suffix, c) ->
          if Analysis.Reach.feasible c then
            check_against_explicit (p.Core.Flow.name ^ suffix) c)
        [ ("", p.Core.Flow.original); (".re", p.Core.Flow.retimed) ])
    [
      ("dk16", Synth.Assign.Input_dominant, Synth.Flow.Delay);
      ("pma", Synth.Assign.Output_dominant, Synth.Flow.Delay);
      ("s510", Synth.Assign.Combined, Synth.Flow.Delay);
      ("s820", Synth.Assign.Combined, Synth.Flow.Rugged);
      ("s832", Synth.Assign.Output_dominant, Synth.Flow.Rugged);
      ("scf", Synth.Assign.Input_dominant, Synth.Flow.Delay);
    ]

let suite =
  [
    Alcotest.test_case "truth-table roundtrip" `Quick test_table_roundtrip;
    Alcotest.test_case "operators vs truth tables" `Quick
      test_operators_canonical;
    Alcotest.test_case "quantify/restrict/compose" `Quick
      test_quantify_restrict_compose;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "node limit" `Quick test_node_limit;
    Alcotest.test_case "create rejects unpackable budgets" `Quick
      test_create_packable;
    Alcotest.test_case "kernel identity (golden counters)" `Quick
      test_kernel_identity;
    qcheck_canonical_growth;
    Alcotest.test_case "sat counts past integer range" `Quick
      test_sat_count_wide;
    Alcotest.test_case "small sat counts over wide spaces" `Quick
      test_sat_count_small_wide;
    Alcotest.test_case "symreach matches explicit (toy)" `Quick
      test_symreach_toy;
    Alcotest.test_case "symreach matches explicit (synthesized)" `Quick
      test_symreach_synthesized;
    Alcotest.test_case "symreach beyond the DFF cap" `Quick
      test_symreach_shift65;
    Alcotest.test_case "symreach beyond the PI cap" `Quick
      test_symreach_wide_inputs;
    Alcotest.test_case "symreach node limit" `Quick test_symreach_node_limit;
    Alcotest.test_case "symreach matches explicit (benchmarks)" `Slow
      test_symreach_benchmarks;
  ]

(* Materialize a retimed circuit from a retiming graph and a lag function.
   Register chains are shared per physical source: a source whose out-edges
   need depths w1 <= ... <= wk drives a single chain of wk DFFs with taps at
   the required depths (this is how retiming both moves and duplicates
   registers across fanout, the mechanism behind the paper's DFF growth).

   Register initial values are computed so that the retimed circuit from
   power-up behaves exactly like the original does after consuming
   [prefix_length] copies of [prefix_input] (all-zero by default; synthesis
   passes the reset vector for circuits with an explicit reset line, pinning
   the retimed power-up state to the original reset state).  This realizes
   the P ∪ T prefix of the paper's Theorem 1 footnote constructively. *)

let prefix_length g r =
  let depth = ref 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      let w = Graph.retimed_weight r e in
      if w > !depth then depth := w)
    g.Graph.edges;
  !depth + 1

let materialize ?prefix_input g r =
  if not (Graph.legal g r) then invalid_arg "Apply.materialize: illegal lags";
  let c = g.Graph.circuit in
  let is_const = Graph.const_dffs c in
  (* max retimed weight per physical source *)
  let maxw = Hashtbl.create 97 in
  Array.iter
    (fun (e : Graph.edge) ->
      let w = Graph.retimed_weight r e in
      let cur = try Hashtbl.find maxw e.Graph.src_node with Not_found -> 0 in
      if w > cur then Hashtbl.replace maxw e.Graph.src_node w)
    g.Graph.edges;
  (* Consistent initial values: simulate the original circuit from power-up
     under T all-zero input vectors and record the history of every signal;
     a chain register holding source s delayed by d cycles powers up with
     the value s had at time T - d.  The retimed circuit then behaves, from
     power-up, exactly like the original does from cycle T onward. *)
  let prefix = prefix_length g r in
  let history = Array.make prefix [||] in
  let sim = Sim.Scalar.create c in
  let in_vector =
    match prefix_input with
    | Some v ->
      if Array.length v <> Netlist.Node.num_pis c then
        invalid_arg "Apply.materialize: prefix_input width";
      Array.map Sim.Value3.of_bool v
    | None -> Array.make (Netlist.Node.num_pis c) Sim.Value3.Zero
  in
  Sim.Scalar.reset sim;
  for t = 0 to prefix - 1 do
    Sim.Scalar.set_inputs sim in_vector;
    Sim.Scalar.eval_comb sim;
    history.(t) <-
      Array.init (Netlist.Node.num_nodes c) (fun id -> Sim.Scalar.value sim id);
    Sim.Scalar.tick sim
  done;
  (* value of source [s] delayed by [d] cycles at retimed power-up *)
  let init_of s d =
    match history.(prefix - d).(s) with
    | Sim.Value3.One -> true
    | Sim.Value3.Zero -> false
    | Sim.Value3.X -> false
  in
  let b = Netlist.Build.create () in
  let new_id = Array.make (Netlist.Node.num_nodes c) (-1) in
  (* primary inputs, in order *)
  Array.iter
    (fun id ->
      new_id.(id) <-
        Netlist.Build.add_pi b (Netlist.Node.node c id).Netlist.Node.name)
    c.Netlist.Node.pis;
  (* constant generators survive unchanged *)
  Array.iter
    (fun id ->
      if is_const.(id) then begin
        let nd = Netlist.Node.node c id in
        let d =
          Netlist.Build.add_dff b
            ~init:(Netlist.Node.dff_init c id)
            nd.Netlist.Node.name
        in
        Netlist.Build.connect_dff b d d;
        new_id.(id) <- d
      end)
    c.Netlist.Node.dffs;
  (* register chains (data connected after gates exist) *)
  let chains = Hashtbl.create 97 in
  Hashtbl.iter
    (fun src w ->
      if w > 0 then begin
        let name = (Netlist.Node.node c src).Netlist.Node.name in
        let chain =
          Array.init w (fun k ->
              Netlist.Build.add_dff b
                ~init:(init_of src (k + 1))
                (Printf.sprintf "rt_%s_%d" name (k + 1)))
        in
        Hashtbl.replace chains src chain
      end)
    maxw;
  (* gates in topological order of the zero-weight (combinational) subgraph *)
  let n = Graph.num_gates g in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  let gate_edges = Array.make n [] in
  Array.iter
    (fun (e : Graph.edge) ->
      let dv = e.Graph.dst_v and sv = e.Graph.src_v in
      if dv >= 0 then begin
        gate_edges.(dv) <- e :: gate_edges.(dv);
        if sv >= 0 && Graph.retimed_weight r e = 0 then begin
          indeg.(dv) <- indeg.(dv) + 1;
          succs.(sv) <- dv :: succs.(sv)
        end
      end)
    g.Graph.edges;
  let tap src w =
    if w = 0 then new_id.(src)
    else (Hashtbl.find chains src).(w - 1)
  in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr processed;
    let gid = g.Graph.gates.(v) in
    let nd = Netlist.Node.node c gid in
    let fn =
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate fn -> fn
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> assert false
    in
    let fanins = Array.make (Array.length nd.Netlist.Node.fanins) (-1) in
    List.iter
      (fun (e : Graph.edge) ->
        fanins.(e.Graph.dst_pin) <-
          tap e.Graph.src_node (Graph.retimed_weight r e))
      gate_edges.(v);
    new_id.(gid) <-
      Netlist.Build.add_gate b fn nd.Netlist.Node.name fanins;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succs.(v)
  done;
  if !processed < n then
    failwith "Apply.materialize: retimed combinational subgraph is cyclic";
  (* connect the register chains *)
  Hashtbl.iter
    (fun src chain ->
      Array.iteri
        (fun k d ->
          let data = if k = 0 then new_id.(src) else chain.(k - 1) in
          Netlist.Build.connect_dff b d data)
        chain)
    chains;
  (* primary outputs *)
  Array.iter
    (fun (e : Graph.edge) ->
      if e.Graph.dst_node < 0 then begin
        let name, _ = c.Netlist.Node.pos.(e.Graph.po_index) in
        Netlist.Build.add_po b name
          (tap e.Graph.src_node (Graph.retimed_weight r e))
      end)
    g.Graph.edges;
  let out = Netlist.Build.finalize b in
  Netlist.Check.assert_ok out;
  out

(* Full flows. *)
let retime_min_period ?prefix_input c =
  let g = Graph.of_netlist c in
  let r, period = Solve.min_period g in
  (materialize ?prefix_input g r, period)

let retime_to_period ?prefix_input c ~period =
  let g = Graph.of_netlist c in
  match Solve.retime_to_period g ~period with
  | None -> None
  | Some (r, p) -> Some (materialize ?prefix_input g r, p)

let retime_aggressive ?prefix_input ?max_lag ?max_regs_factor ?period_slack c
    =
  let g = Graph.of_netlist c in
  let r, period =
    Solve.aggressive g ?max_lag ?max_regs_factor ?period_slack ()
  in
  (materialize ?prefix_input g r, period, prefix_length g r)

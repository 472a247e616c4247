(* Structural attributes of Table 5, computed on the gate-level retiming
   graph (gates as vertices, register counts as edge weights).

   Key property exploited: materialized retimed circuits preserve gate names
   and connectivity, so an original/retimed pair has the *same* gate graph
   up to edge weights, and the weight of any fixed host-to-host path or
   cycle is invariant under retiming (the telescoping sum behind the paper's
   Theorems 2-4).  All traversals below are ordered canonically by gate
   *name* — never by weight — so the explored path/cycle set is identical
   for both members of a pair even when the expansion budget binds: the
   measured sequential depth and maximum cycle length are then exactly equal
   by construction, while the Lioy-style cycle count differs only through
   DFF-identity splitting (the Figure-2 artifact the paper discusses).

   Physical register identity is (driving signal, chain depth): registers
   delayed from the same source share a chain, exactly as materialized. *)

type result = {
  seq_depth : int;
  max_cycle_length : int;
  num_cycles : int;        (* distinct DFF sets among explored simple cycles *)
  exact : bool;            (* false if an expansion budget was hit *)
}

type gate_edge = {
  dst : int;               (* dense gate index, or -1 for the host (PO) *)
  weight : int;
  src_name : int;          (* rank of the driving gate/PI (register chain id) *)
  pin : int;
  po : int;                (* po index for host edges, -1 otherwise *)
}

type graph = {
  num_gates : int;
  succ : gate_edge array array; (* per gate, out-edges in canonical order *)
  host_succ : gate_edge array;
  rank : int array;             (* canonical rank of each gate (by name) *)
  by_rank : int array;          (* gate indices in rank order *)
}

let build c =
  let g = Retime.Graph.of_netlist c in
  let names =
    Array.map
      (fun id -> (Netlist.Node.node c id).Netlist.Node.name)
      g.Retime.Graph.gates
  in
  let n = Array.length names in
  let by_rank = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare names.(a) names.(b)) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  (* canonical id for any source node (gate, PI or const), by name *)
  let src_names = Hashtbl.create 256 in
  Array.iter
    (fun (e : Retime.Graph.edge) ->
      let nm = (Netlist.Node.node c e.Retime.Graph.src_node).Netlist.Node.name in
      Hashtbl.replace src_names nm ())
    g.Retime.Graph.edges;
  let sorted_srcs =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) src_names [])
  in
  let src_rank = Hashtbl.create 256 in
  List.iteri (fun i nm -> Hashtbl.replace src_rank nm i) sorted_srcs;
  let gate_succ = Array.make n [] in
  let host_succ = ref [] in
  Array.iter
    (fun (e : Retime.Graph.edge) ->
      let dst = e.Retime.Graph.dst_v in
      let nm = (Netlist.Node.node c e.Retime.Graph.src_node).Netlist.Node.name in
      let ge =
        {
          dst;
          weight = e.Retime.Graph.weight;
          src_name = Hashtbl.find src_rank nm;
          pin = e.Retime.Graph.dst_pin;
          po = e.Retime.Graph.po_index;
        }
      in
      match (Netlist.Node.node c e.Retime.Graph.src_node).Netlist.Node.kind with
      | Netlist.Node.Gate _ ->
        let sv = e.Retime.Graph.src_v in
        gate_succ.(sv) <- ge :: gate_succ.(sv)
      | Netlist.Node.Pi _ -> host_succ := ge :: !host_succ
      | Netlist.Node.Dff _ -> () (* constant generators: not machine paths *))
    g.Retime.Graph.edges;
  (* canonical, weight-independent edge order *)
  let canon l =
    let a = Array.of_list l in
    let sort_key e =
      let d = if e.dst < 0 then max_int else rank.(e.dst) in
      (d, e.po, e.pin, e.src_name)
    in
    Array.sort (fun x y -> compare (sort_key x) (sort_key y)) a;
    a
  in
  {
    num_gates = n;
    succ = Array.map canon gate_succ;
    host_succ = canon !host_succ;
    rank;
    by_rank;
  }

let default_depth_budget = 1_500_000
let default_cycle_budget = 3_000_000

(* Maximum sequential depth: deepest host-to-host simple path (gates visited
   at most once), weight = registers crossed. *)
let seq_depth ?(budget = default_depth_budget) gr =
  let visited = Array.make gr.num_gates false in
  let best = ref 0 in
  let expansions = ref 0 in
  let exact = ref true in
  let rec dfs v acc =
    incr expansions;
    if !expansions > budget then exact := false
    else
      Array.iter
        (fun e ->
          if e.dst < 0 then begin
            if acc + e.weight > !best then best := acc + e.weight
          end
          else if not visited.(e.dst) then begin
            visited.(e.dst) <- true;
            dfs e.dst (acc + e.weight);
            visited.(e.dst) <- false
          end)
        gr.succ.(v)
  in
  Array.iter
    (fun e ->
      if e.dst < 0 then begin
        if e.weight > !best then best := e.weight
      end
      else begin
        visited.(e.dst) <- true;
        dfs e.dst e.weight;
        visited.(e.dst) <- false
      end)
    gr.host_succ;
  (!best, !exact)

(* Johnson simple-cycle enumeration: per root (in canonical order), search
   only vertices of rank > root that lie on a root-to-root lasso (forward
   and backward reachable, a topology-only restriction identical across an
   original/retimed pair), with Johnson's blocking lists to avoid
   re-exploring dead ends.  Cycles are identified by their physical register
   set {(chain id, depth)}; at most one cycle is counted per register set,
   the behaviour of the Lioy et al. algorithm the paper discusses. *)
let cycles ?(budget = default_cycle_budget) gr =
  let n = gr.num_gates in
  let sets = Hashtbl.create 1024 in
  let max_len = ref 0 in
  let expansions = ref 0 in
  let exact = ref true in
  let record regs weight =
    if weight > 0 then begin
      let key = List.sort compare regs in
      if not (Hashtbl.mem sets key) then begin
        Hashtbl.add sets key ();
        if weight > !max_len then max_len := weight
      end
    end
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun v es ->
      Array.iter
        (fun e -> if e.dst >= 0 then preds.(e.dst) <- v :: preds.(e.dst))
        es)
    gr.succ;
  let in_f = Array.make n false in
  let in_b = Array.make n false in
  let region_of root =
    Array.fill in_f 0 n false;
    Array.fill in_b 0 n false;
    let rec fwd v =
      Array.iter
        (fun e ->
          if e.dst >= 0 && (not in_f.(e.dst))
             && (e.dst = root || gr.rank.(e.dst) > gr.rank.(root))
          then begin
            in_f.(e.dst) <- true;
            if e.dst <> root then fwd e.dst
          end)
        gr.succ.(v)
    in
    let rec bwd v =
      List.iter
        (fun p ->
          if (not in_b.(p)) && (p = root || gr.rank.(p) > gr.rank.(root))
          then begin
            in_b.(p) <- true;
            if p <> root then bwd p
          end)
        preds.(v)
    in
    fwd root;
    bwd root
  in
  let blocked = Array.make n false in
  let blists = Array.make n [] in
  let rec unblock v =
    if blocked.(v) then begin
      blocked.(v) <- false;
      let bs = blists.(v) in
      blists.(v) <- [];
      List.iter unblock bs
    end
  in
  let in_region v = in_f.(v) && in_b.(v) in
  let rec circuit root v acc regs =
    incr expansions;
    blocked.(v) <- true;
    let found = ref false in
    if !expansions > budget then exact := false
    else
      Array.iter
        (fun e ->
          if e.dst >= 0 && in_region e.dst then begin
            let regs' () =
              if e.weight = 0 then regs
              else
                List.rev_append
                  (List.init e.weight (fun d -> (e.src_name, d)))
                  regs
            in
            if e.dst = root then begin
              record (regs' ()) (acc + e.weight);
              found := true
            end
            else if not blocked.(e.dst) then
              if circuit root e.dst (acc + e.weight) (regs' ()) then
                found := true
          end)
        gr.succ.(v);
    if !found then unblock v
    else
      Array.iter
        (fun e ->
          if e.dst >= 0 && in_region e.dst && e.dst <> root then
            if not (List.mem v blists.(e.dst)) then
              blists.(e.dst) <- v :: blists.(e.dst))
        gr.succ.(v);
    !found
  in
  Array.iter
    (fun root ->
      if !expansions <= budget then begin
        region_of root;
        if in_f.(root) && in_b.(root) then begin
          Array.fill blocked 0 n false;
          Array.iteri (fun i _ -> blists.(i) <- []) blists;
          ignore (circuit root root 0 [])
        end
      end)
    gr.by_rank;
  (Hashtbl.length sets, !max_len, !exact)

let analyze ?depth_budget ?cycle_budget c =
  let gr = build c in
  let d, e1 = seq_depth ?budget:depth_budget gr in
  let nc, ml, e2 = cycles ?budget:cycle_budget gr in
  { seq_depth = d; max_cycle_length = ml; num_cycles = nc; exact = e1 && e2 }

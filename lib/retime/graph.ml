(* Retiming graph (Leiserson–Saxe): vertices are the combinational gates
   plus a host vertex representing the environment (all PIs and POs); each
   edge carries the number of registers (DFFs) between its endpoints.

   Edges remember the physical source node (gate, PI or constant generator)
   so the retimed circuit can be materialized with per-source register-chain
   sharing.  Constant generators (self-looped DFFs used to model constants)
   are pinned to lag 0 like the host: their value never changes. *)

type edge = {
  src_node : int;               (* netlist id: gate output, PI, or const DFF *)
  src_v : int;                  (* dense vertex of a gate source, else -1 *)
  weight : int;                 (* registers along the connection *)
  (* destination: either pin [dst_pin] of gate [dst_node], or primary output
     [po_index] when dst_node < 0 *)
  dst_node : int;
  dst_v : int;                  (* dense vertex of [dst_node], or -1 *)
  dst_pin : int;
  po_index : int;
}

type t = {
  circuit : Netlist.Node.t;
  gates : int array;            (* netlist ids of gates, dense vertex order *)
  vertex_of_gate : int array;   (* netlist id -> dense vertex index, or -1 *)
  edges : edge array;
  delays : float array;         (* per dense vertex index *)
}

let num_gates g = Array.length g.gates

(* Detect constant DFFs: registers whose data-input chain loops back to
   themselves without passing through a gate. *)
let const_dffs c =
  let is_const = Array.make (Netlist.Node.num_nodes c) false in
  Array.iter
    (fun d ->
      let rec walk id steps seen =
        if steps > Netlist.Node.num_dffs c + 1 then false
        else
          match (Netlist.Node.node c id).Netlist.Node.kind with
          | Netlist.Node.Dff _ ->
            if List.mem id seen then true
            else
              walk
                (Netlist.Node.node c id).Netlist.Node.fanins.(0)
                (steps + 1) (id :: seen)
          | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> false
      in
      if walk d 0 [] then is_const.(d) <- true)
    c.Netlist.Node.dffs;
  is_const

(* Walk backwards from a fanin through the DFF chain; returns (source node,
   register count).  Source is a gate, a PI, or a constant DFF. *)
let trace_back c is_const f =
  let rec walk id w =
    match (Netlist.Node.node c id).Netlist.Node.kind with
    | Netlist.Node.Dff _ when not is_const.(id) ->
      walk (Netlist.Node.node c id).Netlist.Node.fanins.(0) (w + 1)
    | Netlist.Node.Dff _ | Netlist.Node.Pi _ | Netlist.Node.Gate _ -> (id, w)
  in
  walk f 0

let of_netlist c =
  let is_const = const_dffs c in
  let gates = ref [] in
  Array.iter
    (fun (nd : Netlist.Node.node) ->
      match nd.Netlist.Node.kind with
      | Netlist.Node.Gate _ -> gates := nd.Netlist.Node.id :: !gates
      | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> ())
    c.Netlist.Node.nodes;
  let gates = Array.of_list (List.rev !gates) in
  let vertex_of_gate = Array.make (Netlist.Node.num_nodes c) (-1) in
  Array.iteri (fun i id -> vertex_of_gate.(id) <- i) gates;
  let edges = ref [] in
  let add f ~dst_node ~dst_pin ~po_index =
    let src_node, weight = trace_back c is_const f in
    let vertex id = if id < 0 then -1 else vertex_of_gate.(id) in
    edges :=
      { src_node; src_v = vertex src_node; weight; dst_node;
        dst_v = vertex dst_node; dst_pin; po_index }
      :: !edges
  in
  Array.iter
    (fun gid ->
      Array.iteri
        (fun pin f -> add f ~dst_node:gid ~dst_pin:pin ~po_index:(-1))
        (Netlist.Node.node c gid).Netlist.Node.fanins)
    gates;
  Array.iteri
    (fun k (_, id) -> add id ~dst_node:(-1) ~dst_pin:0 ~po_index:k)
    c.Netlist.Node.pos;
  let delays =
    Array.map
      (fun gid ->
        let nd = Netlist.Node.node c gid in
        match nd.Netlist.Node.kind with
        | Netlist.Node.Gate fn ->
          Netlist.Node.gate_delay fn (Array.length nd.Netlist.Node.fanins)
        | Netlist.Node.Pi _ | Netlist.Node.Dff _ -> 0.0)
      gates
  in
  {
    circuit = c;
    gates;
    vertex_of_gate;
    edges = Array.of_list (List.rev !edges);
    delays;
  }

(* Lag of a dense vertex: gates carry the retiming value, the host (PIs and
   POs) and constant generators, whose vertex is -1, are pinned to 0. *)
let lag r v = if v < 0 then 0 else r.(v)

let retimed_weight r e = e.weight + lag r e.dst_v - lag r e.src_v

let legal g r = Array.for_all (fun e -> retimed_weight r e >= 0) g.edges

(* Register count of the materialized circuit with per-source register-chain
   sharing: each physical source drives one chain as deep as its deepest
   out-edge. *)
let total_registers_shared g r =
  let best = Array.make (Netlist.Node.num_nodes g.circuit) 0 in
  Array.fold_left
    (fun acc e ->
      let w = retimed_weight r e in
      let cur = best.(e.src_node) in
      if w > cur then begin
        best.(e.src_node) <- w;
        acc + w - cur
      end
      else acc)
    0 g.edges

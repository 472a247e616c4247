(* Hash-consed ROBDD engine with complement edges.

   An edge is an int: (node index lsl 1) lor complement bit.  Node 0 is
   the single terminal (logical true); [one] is its regular edge, [zero]
   its complement.  Canonical form demands a regular then-edge: [mk]
   pushes a complemented then-edge through the node (complementing both
   children and the result), so equal functions always hash-cons to equal
   edge integers.

   Every table is a flat int array, so no lookup allocates: node [n] is
   the row [var; low; high] at [3n .. 3n+2] of [nodes]; the unique table
   stores node indices and reads each key back from its row; the ite
   cache and the per-call memos are {!Tbl}s.  All of them are exact — an
   entry is never evicted or overwritten — so a lookup hits exactly when
   its key was stored before, whatever the table sizes.  Nodes are
   therefore created in the same order, with the same indices, as by any
   other exact memoization of the same recursion. *)

type t = int

(* Exact open-addressing map from a key pair [(k, k')] to a value [v],
   with [k >= 0] and [k', v < 2^31]: slot [i] holds [k] at [2i] and
   [(k' lsl 31) lor v] at [2i+1], and [k = -1] marks it empty.  Linear
   probing; the table doubles before it passes half load. *)
module Tbl = struct
  type t = { mutable slots : int array; mutable bits : int; mutable count : int }

  let low31 = (1 lsl 31) - 1

  let create bits = { slots = Array.make (2 lsl bits) (-1); bits; count = 0 }

  (* multiplicative hashing: the top [bits] bits of the mixed key *)
  let hash k k' bits =
    (((k * 0x2545F4914F6CDD1D) + k') * 0x1E3779B97F4A7C15) lsr (63 - bits)

  let rec probe slots mask k k' i =
    let s = slots.(2 * i) in
    if s = -1 then -1
    else
      let w = slots.((2 * i) + 1) in
      if s = k && w lsr 31 = k' then w land low31
      else probe slots mask k k' ((i + 1) land mask)

  (* the value stored under [(k, k')], or [-1] *)
  let find t k k' =
    probe t.slots ((1 lsl t.bits) - 1) k k' (hash k k' t.bits)

  let rec free slots mask i =
    if slots.(2 * i) = -1 then i else free slots mask ((i + 1) land mask)

  let insert slots bits k w =
    let i = free slots ((1 lsl bits) - 1) (hash k (w lsr 31) bits) in
    slots.(2 * i) <- k;
    slots.((2 * i) + 1) <- w

  (* [k, k'] must be absent *)
  let add t k k' v =
    if 2 * (t.count + 1) > 1 lsl t.bits then begin
      let old = t.slots in
      t.bits <- t.bits + 1;
      t.slots <- Array.make (2 lsl t.bits) (-1);
      for i = 0 to (Array.length old / 2) - 1 do
        if old.(2 * i) <> -1 then
          insert t.slots t.bits old.(2 * i) old.((2 * i) + 1)
      done
    end;
    insert t.slots t.bits k ((k' lsl 31) lor v);
    t.count <- t.count + 1
end

type man = {
  mutable nodes : int array;  (* rows of 3: var (terminal = max_int),
                                 else edge (may be complemented),
                                 then edge (always regular) *)
  mutable n : int;            (* nodes allocated *)
  mutable unique : int array; (* node index per slot, 0 = empty *)
  mutable ubits : int;        (* log2 of the unique table size, which
                                 stays at least twice the node count *)
  cache : Tbl.t;              (* ite: (f lsl 31) lor g, h -> result *)
  mutable lookups : int;
  mutable hits : int;
  max_nodes : int;
}

exception Node_limit

let terminal_var = max_int
let one = 0
let zero = 1
let not_ e = e lxor 1
let equal = Int.equal
let is_true e = e = one
let is_false e = e = zero
let is_compl e = e land 1 = 1
let node_of e = e lsr 1

(* Every edge is below [2 * max_nodes]; the packed keys need it below
   2^31. *)
let max_packable_nodes = 1 lsl 30

let create ?(max_nodes = 10_000_000) () =
  if max_nodes > max_packable_nodes then
    invalid_arg
      (Printf.sprintf "Bdd.create: max_nodes %d exceeds %d" max_nodes
         max_packable_nodes);
  let nodes = Array.make (3 * 1024) 0 in
  nodes.(0) <- terminal_var;
  {
    nodes;
    n = 1;
    unique = Array.make 1024 0;
    ubits = 10;
    cache = Tbl.create 10;
    lookups = 0;
    hits = 0;
    max_nodes;
  }

let var_of m e = m.nodes.(3 * node_of e)

(* Cofactors of [e] with respect to its own top variable; the edge's
   complement bit distributes over both children. *)
let cof0 m e = m.nodes.((3 * node_of e) + 1) lxor (e land 1)
let cof1 m e = m.nodes.((3 * node_of e) + 2) lxor (e land 1)

(* Cofactors of [e] at a variable [v] at or above its top variable. *)
let cof0_at m v e = if var_of m e = v then cof0 m e else e
let cof1_at m v e = if var_of m e = v then cof1 m e else e

let hash3 v lo hi bits =
  (((((v * 0x2545F4914F6CDD1D) + lo) * 0x1E3779B97F4A7C15) + hi)
   * 0x2545F4914F6CDD1D)
  lsr (63 - bits)

(* The unique-table slot holding node [(v, lo, hi)], or the empty slot
   where it belongs. *)
let rec slot_of nodes unique mask v lo hi i =
  let n = unique.(i) in
  if
    n = 0
    || nodes.(3 * n) = v
       && nodes.((3 * n) + 1) = lo
       && nodes.((3 * n) + 2) = hi
  then i
  else slot_of nodes unique mask v lo hi ((i + 1) land mask)

let grow_unique m =
  m.ubits <- m.ubits + 1;
  let unique = Array.make (1 lsl m.ubits) 0 in
  let mask = (1 lsl m.ubits) - 1 in
  for n = 1 to m.n - 1 do
    let v = m.nodes.(3 * n)
    and lo = m.nodes.((3 * n) + 1)
    and hi = m.nodes.((3 * n) + 2) in
    unique.(slot_of m.nodes unique mask v lo hi (hash3 v lo hi m.ubits)) <- n
  done;
  m.unique <- unique

let mk m v lo hi =
  if lo = hi then lo
  else begin
    (* canonical: then-edge regular; a complemented one flips the node *)
    let flip = hi land 1 in
    let lo = lo lxor flip and hi = hi lxor flip in
    let i =
      slot_of m.nodes m.unique
        ((1 lsl m.ubits) - 1)
        v lo hi (hash3 v lo hi m.ubits)
    in
    let n = m.unique.(i) in
    if n <> 0 then (n lsl 1) lor flip
    else begin
      if m.n >= m.max_nodes then raise Node_limit;
      let n = m.n in
      if 3 * (n + 1) > Array.length m.nodes then begin
        let nodes = Array.make (2 * Array.length m.nodes) 0 in
        Array.blit m.nodes 0 nodes 0 (3 * n);
        m.nodes <- nodes
      end;
      m.nodes.(3 * n) <- v;
      m.nodes.((3 * n) + 1) <- lo;
      m.nodes.((3 * n) + 2) <- hi;
      m.n <- n + 1;
      m.unique.(i) <- n;
      if 2 * n > 1 lsl m.ubits then grow_unique m;
      (n lsl 1) lor flip
    end
  end

let var m v =
  if v < 0 || v >= terminal_var then invalid_arg "Bdd.var: bad variable";
  mk m v zero one

let top_var m e = if node_of e = 0 then None else Some (var_of m e)

let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else if g = zero && h = one then not_ f
  (* normalize: regular f (swap branches), then regular g (complement
     the result) — quadruples the ite-cache hit rate *)
  else if is_compl f then ite_regular_f m (not_ f) h g
  else ite_regular_f m f g h

and ite_regular_f m f g h =
  if is_compl g then not_ (ite_cached m f (not_ g) (not_ h))
  else ite_cached m f g h

(* [f] and [g] regular, [f] not a terminal *)
and ite_cached m f g h =
  if g = h then g
  else if g = one && h = zero then f
  else begin
    m.lookups <- m.lookups + 1;
    let r = Tbl.find m.cache ((f lsl 31) lor g) h in
    if r >= 0 then begin
      m.hits <- m.hits + 1;
      r
    end
    else begin
      let v = Int.min (var_of m f) (Int.min (var_of m g) (var_of m h)) in
      let t = ite m (cof1_at m v f) (cof1_at m v g) (cof1_at m v h) in
      let e = ite m (cof0_at m v f) (cof0_at m v g) (cof0_at m v h) in
      let r = mk m v e t in
      Tbl.add m.cache ((f lsl 31) lor g) h r;
      r
    end
  end

let and_ m f g = ite m f g zero
let or_ m f g = ite m f one g
let xor_ m f g = ite m f (not_ g) g
let xnor_ m f g = not_ (xor_ m f g)

let restrict m f ~var:v ~value =
  let memo = Tbl.create 4 in
  let rec go f =
    if var_of m f > v then f (* ordered: v cannot appear below *)
    else if var_of m f = v then if value then cof1 m f else cof0 m f
    else
      let r = Tbl.find memo f 0 in
      if r >= 0 then r
      else begin
        let r = mk m (var_of m f) (go (cof0 m f)) (go (cof1 m f)) in
        Tbl.add memo f 0 r;
        r
      end
  in
  go f

let compose m f ~var:v g =
  ite m g (restrict m f ~var:v ~value:true) (restrict m f ~var:v ~value:false)

let exists m pred f =
  let memo = Tbl.create 4 in
  let rec go f =
    if node_of f = 0 then f
    else
      let r = Tbl.find memo f 0 in
      if r >= 0 then r
      else begin
        let v = var_of m f in
        let l = go (cof0 m f) and h = go (cof1 m f) in
        let r = if pred v then or_ m l h else mk m v l h in
        Tbl.add memo f 0 r;
        r
      end
  in
  go f

(* Relational product: exists-and in one pass, with the early cut-offs
   that make image computation cheap (a satisfied quantified branch
   collapses to [one] without exploring its sibling). *)
let and_exists m pred f g =
  let memo = Tbl.create 4 in
  let rec go f g =
    if f = zero || g = zero then zero
    else if f = one && g = one then one
    else if f = one then exists m pred g
    else if g = one then exists m pred f
    else if f = g then exists m pred f
    else if f = not_ g then zero
    else begin
      let key = (Int.min f g lsl 31) lor Int.max f g in
      let r = Tbl.find memo key 0 in
      if r >= 0 then r
      else begin
        let v = Int.min (var_of m f) (var_of m g) in
        let l = go (cof0_at m v f) (cof0_at m v g) in
        let r =
          if pred v then
            if l = one then one
            else or_ m l (go (cof1_at m v f) (cof1_at m v g))
          else mk m v l (go (cof1_at m v f) (cof1_at m v g))
        in
        Tbl.add memo key 0 r;
        r
      end
    end
  in
  go f g

let rename m map f =
  let memo = Tbl.create 4 in
  let rec go f =
    if node_of f = 0 then f
    else
      let r = Tbl.find memo f 0 in
      if r >= 0 then r
      else begin
        let v = map (var_of m f) in
        let l = go (cof0 m f) and h = go (cof1 m f) in
        if v < 0 || v >= var_of m l || v >= var_of m h then
          invalid_arg "Bdd.rename: map must preserve the variable order";
        let r = mk m v l h in
        Tbl.add memo f 0 r;
        r
      end
  in
  go f

let rec eval m f env =
  if f = one then true
  else if f = zero then false
  else eval m (if env (var_of m f) then cof1 m f else cof0 m f) env

let support m f =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    let n = node_of f in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars m.nodes.(3 * n) ();
      go m.nodes.((3 * n) + 1);
      go m.nodes.((3 * n) + 2)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    let n = node_of f in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go m.nodes.((3 * n) + 1);
      go m.nodes.((3 * n) + 2)
    end
  in
  go f;
  Hashtbl.length seen

let check_support name m ~nvars f =
  List.iter
    (fun v ->
      if v >= nvars then
        invalid_arg
          (Printf.sprintf "Bdd.%s: support variable %d >= nvars %d" name v
             nvars))
    (support m f)

(* Counting: [node_count n p] is the satisfying-assignment count of the
   edge [(n, p)] over variables [var n .. nvars-1]; an edge at [level]
   scales by the skipped free variables.  Memoizing on (node, polarity)
   and pushing the complement bit into the children makes every value a
   sum of non-negative subcounts — never [2^k -. x], whose cancellation
   would corrupt small counts once both operands exceed 2^53.  So counts
   are exact up to 2^53 for any [nvars], and merely rounded (relative
   error only, never overflowed) beyond. *)
let sat_count m ~nvars f =
  check_support "sat_count" m ~nvars f;
  let memo = Hashtbl.create 64 in
  let rec node_count n p =
    match Hashtbl.find_opt memo ((n lsl 1) lor p) with
    | Some c -> c
    | None ->
      let v = m.nodes.(3 * n) in
      let c =
        edge_count (m.nodes.((3 * n) + 1) lxor p) (v + 1)
        +. edge_count (m.nodes.((3 * n) + 2) lxor p) (v + 1)
      in
      Hashtbl.add memo ((n lsl 1) lor p) c;
      c
  and edge_count e level =
    let n = node_of e in
    if n = 0 then if is_compl e then 0.0 else ldexp 1.0 (nvars - level)
    else ldexp (node_count n (e land 1)) (m.nodes.(3 * n) - level)
  in
  edge_count f 0

(* Same recursion in 63-bit integers; [nvars <= 61] guarantees every
   intermediate count (at most [2^nvars]) is representable. *)
let sat_count_int m ~nvars f =
  check_support "sat_count_int" m ~nvars f;
  if nvars > 61 then None
  else begin
    let memo = Hashtbl.create 64 in
    let rec node_count n =
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = m.nodes.(3 * n) in
        let c = edge_count m.nodes.((3 * n) + 1) (v + 1) + edge_count m.nodes.((3 * n) + 2) (v + 1) in
        Hashtbl.add memo n c;
        c
    and edge_count e level =
      let n = node_of e in
      let reg =
        if n = 0 then 1 lsl (nvars - level)
        else node_count n lsl (m.nodes.(3 * n) - level)
      in
      if is_compl e then (1 lsl (nvars - level)) - reg else reg
    in
    Some (edge_count f 0)
  end

type stats = {
  nodes : int;
  unique_load : float;
  cache_lookups : int;
  cache_hits : int;
}

let stats m =
  {
    nodes = m.n - 1;
    unique_load = float_of_int (m.n - 1) /. float_of_int (1 lsl m.ubits);
    cache_lookups = m.lookups;
    cache_hits = m.hits;
  }

let num_nodes m = m.n - 1

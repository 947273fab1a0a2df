open Mbu_circuit

(* Two representations ("tracks"):

   - [Classical]: a product state. Wires outside [xmask] hold the basis
     value in [idx]; wires in [xmask] hold |+> (or |-> when also in
     [xminus]); the whole is scaled by [amp], negated when the [sign] bit
     of [xminus] is set.
     X / CNOT / Toffoli / Swap on basis wires are O(1) bit twiddles; H
     moves a wire between the basis and the X basis; a permutation gate
     targeting an X-basis wire and a Z-type gate on one only flip a sign.
     None of these allocate. This is where MBU circuits live: the lemma's
     H-measure leaves the garbage wire in |->, so the correction's phase
     kickback is a sign.
   - [Sparse]: the general finite map from basis index to amplitude.
     Permutation and diagonal gates mutate the table in place; only H
     double-buffers into a fresh table.

   Any other gate touching an X-basis wire (a control, a phase, an
   entangling pair) promotes to sparse; whenever a sparse table collapses
   back to a single term (H recombination, projection, reset) the state
   demotes back to classical. *)

type repr =
  | Classical of {
      mutable idx : int;  (* basis wires; 0 on [xmask] wires *)
      mutable amp : Complex.t;
      mutable xmask : int;  (* wires in |+> or |-> *)
      mutable xminus : int;  (* the [xmask] wires in |->, and [sign] *)
    }
  | Sparse of (int, Complex.t) Hashtbl.t

type t = { num_qubits : int; mutable repr : repr }

(* Bit 62 of [xminus] negates [amp], so a sign flip never allocates. States
   have at most 62 wires, so no wire uses it. *)
let sign = min_int

let eps = 1e-12
let inv_sqrt2 = 1.0 /. sqrt 2.0
let num_qubits s = s.num_qubits

let check_range ~num_qubits idx =
  if num_qubits < 0 || num_qubits > 62 then invalid_arg "State: qubit count";
  if idx < 0 || (num_qubits < 62 && idx >= 1 lsl num_qubits) then
    invalid_arg "State: basis index out of range"

let classical idx amp = Classical { idx; amp; xmask = 0; xminus = 0 }

let basis ~num_qubits idx =
  check_range ~num_qubits idx;
  { num_qubits; repr = classical idx Complex.one }

let maybe_demote s =
  match s.repr with
  | Classical _ -> ()
  | Sparse tbl ->
      if Hashtbl.length tbl = 1 then
        Hashtbl.iter (fun k v -> s.repr <- classical k v) tbl

let of_alist ~num_qubits l =
  let amps = Hashtbl.create (max 16 (List.length l)) in
  List.iter
    (fun (idx, a) ->
      check_range ~num_qubits idx;
      if Hashtbl.mem amps idx then invalid_arg "State.of_alist: repeated index";
      Hashtbl.replace amps idx a)
    l;
  let s = { num_qubits; repr = Sparse amps } in
  maybe_demote s;
  s

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* A product state has one term per subset of its X-basis wires, each
   scaled by 1/sqrt 2 per X-basis wire (applied one factor at a time, as
   successive H gates would) and negated once per |-> wire in the subset. *)
let iter_amps s f =
  match s.repr with
  | Sparse tbl -> Hashtbl.iter f tbl
  | Classical { idx; amp; xmask; xminus } ->
      let scaled = ref (if xminus < 0 then Complex.neg amp else amp) in
      for _ = 1 to popcount xmask do
        scaled := Complex.mul { Complex.re = inv_sqrt2; im = 0. } !scaled
      done;
      let rec subsets sub =
        let v = !scaled in
        f (idx lor sub)
          (if popcount (sub land xminus) land 1 = 1 then Complex.neg v else v);
        let next = (sub - xmask) land xmask in
        if next <> 0 then subsets next
      in
      subsets 0

let to_table s =
  match s.repr with
  | Sparse tbl -> tbl
  | Classical _ ->
      let tbl = Hashtbl.create 16 in
      iter_amps s (Hashtbl.replace tbl);
      tbl

(* Leave the product track; the sparse kernels take it from there. *)
let promote s =
  let tbl = to_table s in
  s.repr <- Sparse tbl;
  tbl

let to_alist s =
  let acc = ref [] in
  iter_amps s (fun k v -> if Complex.norm v > eps then acc := (k, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) !acc

let num_terms s = List.length (to_alist s)

let support_size s =
  match s.repr with
  | Classical { xmask; _ } -> 1 lsl popcount xmask
  | Sparse tbl -> Hashtbl.length tbl

let norm2 s =
  let acc = ref 0. in
  iter_amps s (fun _ v -> acc := !acc +. Complex.norm2 v);
  !acc

let norm s = sqrt (norm2 s)

let copy s =
  { s with
    repr =
      (match s.repr with
      | Classical { idx; amp; xmask; xminus } ->
          Classical { idx; amp; xmask; xminus }
      | Sparse tbl -> Sparse (Hashtbl.copy tbl)) }

let is_classical s = match s.repr with Classical _ -> true | Sparse _ -> false

let scale_inplace s w =
  match s.repr with
  | Classical c -> c.amp <- Complex.mul w c.amp
  | Sparse tbl ->
      Hashtbl.filter_map_inplace (fun _ v -> Some (Complex.mul w v)) tbl

let normalize s =
  let n = norm s in
  if n = 0. then invalid_arg "State.normalize: zero state";
  let s = copy s in
  scale_inplace s { re = 1. /. n; im = 0. };
  s

let bit idx q = (idx lsr q) land 1 = 1
let phase_of p = Complex.polar 1.0 (Phase.to_radians p)

(* In-place permutation kernel. Every permutation gate we support (X, CNOT,
   Toffoli, Swap) is an involution whose firing condition is invariant under
   the move: index [k] with [cond k] swaps with [k lxor mask]. Snapshot the
   key set once, then exchange amplitudes pairwise inside the same table —
   no rebuild. A snapshot key can only disappear before its visit by being
   the source of an earlier move, in which case its pair is already done. *)
let permute_involution tbl cond mask =
  let keys = Array.make (Hashtbl.length tbl) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    tbl;
  Array.iter
    (fun k ->
      if cond k then
        let k2 = k lxor mask in
        match (Hashtbl.find_opt tbl k, Hashtbl.find_opt tbl k2) with
        | Some v, Some v2 ->
            if k < k2 then begin
              Hashtbl.replace tbl k v2;
              Hashtbl.replace tbl k2 v
            end
        | Some v, None ->
            Hashtbl.remove tbl k;
            Hashtbl.replace tbl k2 v
        | None, _ -> ())
    keys

let map_diagonal tbl cond f =
  Hashtbl.filter_map_inplace (fun k v -> Some (if cond k then f v else v)) tbl

(* H double-buffers: the only gate that can merge or split terms. *)
let h_table src q =
  let amps = Hashtbl.create (2 * Hashtbl.length src) in
  let accum k v =
    if Complex.norm v > eps then
      match Hashtbl.find_opt amps k with
      | Some prev ->
          let sum = Complex.add prev v in
          if Complex.norm sum > eps then Hashtbl.replace amps k sum
          else Hashtbl.remove amps k
      | None -> Hashtbl.replace amps k v
  in
  Hashtbl.iter
    (fun k v ->
      let scaled = Complex.mul { Complex.re = inv_sqrt2; im = 0. } v in
      if bit k q then begin
        accum (k lxor (1 lsl q)) scaled;
        accum k (Complex.neg scaled)
      end
      else begin
        accum k scaled;
        accum (k lxor (1 lsl q)) scaled
      end)
    src;
  amps

(* ------------------------------------------------------------------ *)
(* Gate kernels, one per gate kind, so a caller holding decoded operands
   never builds a [Gate.t]. On the product track a gate's controls are a
   wire mask [m]: it fires when every wire of [m] is a basis wire set to 1.
   X on an X-basis wire is a sign on |-> and nothing on |+>, so the
   controlled permutations reduce to it once their controls are basis
   wires. *)

let all_set idx m = idx land m = m

let x s q =
  match s.repr with
  | Classical c ->
      let t = 1 lsl q in
      if c.xmask land t = 0 then c.idx <- c.idx lxor t
      else if c.xminus land t <> 0 then c.xminus <- c.xminus lxor sign
  | Sparse tbl -> permute_involution tbl (fun _ -> true) (1 lsl q)

let controlled_x s m target =
  match s.repr with
  | Classical c when c.xmask land m = 0 -> if all_set c.idx m then x s target
  | _ -> permute_involution (promote s) (fun k -> all_set k m) (1 lsl target)

let cnot s control target = controlled_x s (1 lsl control) target
let toffoli s c1 c2 target = controlled_x s ((1 lsl c1) lor (1 lsl c2)) target

let swap s a b =
  let m = (1 lsl a) lor (1 lsl b) in
  match s.repr with
  | Classical c when c.xmask land m = 0 ->
      if bit c.idx a <> bit c.idx b then c.idx <- c.idx lxor m
  | _ -> permute_involution (promote s) (fun k -> bit k a <> bit k b) m

(* Z swaps |+> and |->. *)
let z s q =
  match s.repr with
  | Classical c ->
      let t = 1 lsl q in
      if c.xmask land t <> 0 then c.xminus <- c.xminus lxor t
      else if c.idx land t <> 0 then c.xminus <- c.xminus lxor sign
  | Sparse tbl -> map_diagonal tbl (fun k -> bit k q) Complex.neg

(* CZ with one X-basis wire is a Z on it when the other wire is 1. *)
let cz s a b =
  let m = (1 lsl a) lor (1 lsl b) in
  match s.repr with
  | Classical c when c.xmask land m <> m ->
      if bit c.xmask a then (if bit c.idx b then z s a)
      else if bit c.xmask b then (if bit c.idx a then z s b)
      else if all_set c.idx m then c.xminus <- c.xminus lxor sign
  | _ -> map_diagonal (promote s) (fun k -> all_set k m) Complex.neg

let controlled_phase s m p =
  match s.repr with
  | Classical c when c.xmask land m = 0 ->
      if all_set c.idx m then c.amp <- Complex.mul (phase_of p) c.amp
  | _ -> map_diagonal (promote s) (fun k -> all_set k m) (Complex.mul (phase_of p))

let phase s q p = controlled_phase s (1 lsl q) p
let cphase s control target p =
  controlled_phase s ((1 lsl control) lor (1 lsl target)) p

(* H|0> = |+>, H|1> = |->, and back. *)
let h s q =
  match s.repr with
  | Classical c ->
      let m = 1 lsl q in
      if c.xmask land m <> 0 then begin
        c.xmask <- c.xmask lxor m;
        c.idx <- c.idx lor (c.xminus land m);
        c.xminus <- c.xminus land lnot m
      end
      else begin
        c.xmask <- c.xmask lor m;
        c.xminus <- c.xminus lor (c.idx land m);
        c.idx <- c.idx land lnot m
      end
  | Sparse tbl ->
      s.repr <- Sparse (h_table tbl q);
      maybe_demote s

let apply_gate_inplace s = function
  | Gate.X q -> x s q
  | Gate.Z q -> z s q
  | Gate.H q -> h s q
  | Gate.Phase (q, p) -> phase s q p
  | Gate.Cnot { control; target } -> cnot s control target
  | Gate.Cz (a, b) -> cz s a b
  | Gate.Swap (a, b) -> swap s a b
  | Gate.Toffoli { c1; c2; target } -> toffoli s c1 c2 target
  | Gate.Cphase { control; target; phase = p } -> cphase s control target p

let apply_gate s g =
  let s = copy s in
  apply_gate_inplace s g;
  s

let prob_bit_one s q =
  match s.repr with
  | Classical c -> if bit c.xmask q then 0.5 else if bit c.idx q then 1. else 0.
  | Sparse _ ->
      let p = ref 0. in
      iter_amps s (fun k v -> if bit k q then p := !p +. Complex.norm2 v);
      !p /. norm2 s

let project_inplace s ~qubit ~value =
  match s.repr with
  | Classical c ->
      if bit c.xmask qubit then begin
        (* |-> = (|0> - |1>)/sqrt 2 keeps its sign on the |1> branch *)
        let m = 1 lsl qubit in
        if value then begin
          c.idx <- c.idx lor m;
          if bit c.xminus qubit then c.xminus <- c.xminus lxor sign
        end;
        c.xmask <- c.xmask lxor m;
        c.xminus <- c.xminus land lnot m
      end
      else if bit c.idx qubit <> value then
        invalid_arg "State.project: zero-probability outcome";
      let n = Complex.norm c.amp in
      if n < eps then invalid_arg "State.project: zero-probability outcome";
      c.amp <- Complex.div c.amp { re = n; im = 0. }
  | Sparse tbl ->
      Hashtbl.filter_map_inplace
        (fun k v -> if bit k qubit = value then Some v else None)
        tbl;
      let n2 = Hashtbl.fold (fun _ v acc -> acc +. Complex.norm2 v) tbl 0. in
      if sqrt n2 < eps then
        invalid_arg "State.project: zero-probability outcome";
      let inv = 1. /. sqrt n2 in
      Hashtbl.filter_map_inplace
        (fun _ v -> Some (Complex.mul { Complex.re = inv; im = 0. } v))
        tbl;
      maybe_demote s

let project s ~qubit ~value =
  let s = copy s in
  project_inplace s ~qubit ~value;
  s

(* Clearing a wire is NOT a permutation: when the support holds both values
   of the wire, indices [k] and [k lxor mask] collide on the cleared index,
   so the colliding amplitudes must be accumulated (the map is linear, not
   bijective). The seed implementation routed this through [permute], whose
   [Hashtbl.replace] silently dropped one of the two amplitudes. *)
let set_bit_zero_inplace s ~qubit =
  match s.repr with
  | Classical c when not (bit c.xmask qubit) ->
      c.idx <- c.idx land lnot (1 lsl qubit)
  | _ ->
      let tbl = promote s in
      let mask = 1 lsl qubit in
      let moved = ref [] in
      Hashtbl.iter
        (fun k v -> if k land mask <> 0 then moved := (k, v) :: !moved)
        tbl;
      List.iter (fun (k, _) -> Hashtbl.remove tbl k) !moved;
      List.iter
        (fun (k, v) ->
          let k' = k land lnot mask in
          let sum =
            match Hashtbl.find_opt tbl k' with
            | Some prev -> Complex.add prev v
            | None -> v
          in
          if Complex.norm sum > eps then Hashtbl.replace tbl k' sum
          else Hashtbl.remove tbl k')
        !moved;
      maybe_demote s

let set_bit_zero s ~qubit =
  let s = copy s in
  set_bit_zero_inplace s ~qubit;
  s

let fidelity a b =
  if a.num_qubits <> b.num_qubits then invalid_arg "State.fidelity";
  let na = norm a and nb = norm b in
  let tb = to_table b in
  let dot = ref Complex.zero in
  iter_amps a (fun k va ->
      match Hashtbl.find_opt tb k with
      | Some vb -> dot := Complex.add !dot (Complex.mul (Complex.conj va) vb)
      | None -> ());
  Complex.norm !dot /. (na *. nb)

let classical_value s =
  match s.repr with
  | Classical { idx; amp; xmask; _ } ->
      if xmask = 0 && Complex.norm amp > eps then Some idx else None
  | Sparse _ -> ( match to_alist s with [ (k, _) ] -> Some k | _ -> None)

let bit_value s q =
  match to_alist s with
  | [] -> None
  | (k0, _) :: rest ->
      let v = bit k0 q in
      if List.for_all (fun (k, _) -> bit k q = v) rest then Some v else None

(* ------------------------------------------------------------------ *)
(* Reference engine: the seed's pure rebuild-per-gate algorithms, kept as
   the oracle for the property tests comparing backends, and as the
   "before" baseline in the simulator benchmark. Always returns a sparse
   state and never demotes. *)

module Reference = struct
  let sparse_of s =
    let tbl = Hashtbl.create 16 in
    iter_amps s (fun k v -> Hashtbl.replace tbl k v);
    tbl

  let wrap s tbl = { num_qubits = s.num_qubits; repr = Sparse tbl }

  let permute s f =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter (fun k v -> Hashtbl.replace amps (f k) v) src;
    wrap s amps

  let map_amps s f =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v ->
        let v = f k v in
        if Complex.norm v > eps then Hashtbl.replace amps k v)
      src;
    wrap s amps

  let apply_gate s g =
    match g with
    | Gate.X q -> permute s (fun k -> k lxor (1 lsl q))
    | Gate.Cnot { control; target } ->
        permute s (fun k -> if bit k control then k lxor (1 lsl target) else k)
    | Gate.Toffoli { c1; c2; target } ->
        permute s (fun k ->
            if bit k c1 && bit k c2 then k lxor (1 lsl target) else k)
    | Gate.Swap (a, b) ->
        permute s (fun k ->
            if bit k a <> bit k b then k lxor (1 lsl a) lxor (1 lsl b) else k)
    | Gate.Z q -> map_amps s (fun k v -> if bit k q then Complex.neg v else v)
    | Gate.Cz (a, b) ->
        map_amps s (fun k v -> if bit k a && bit k b then Complex.neg v else v)
    | Gate.Phase (q, p) ->
        let w = phase_of p in
        map_amps s (fun k v -> if bit k q then Complex.mul w v else v)
    | Gate.Cphase { control; target; phase } ->
        let w = phase_of phase in
        map_amps s (fun k v ->
            if bit k control && bit k target then Complex.mul w v else v)
    | Gate.H q -> wrap s (h_table (sparse_of s) q)

  let project s ~qubit ~value =
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v -> if bit k qubit = value then Hashtbl.replace amps k v)
      src;
    let s = wrap s amps in
    if norm s < eps then invalid_arg "State.project: zero-probability outcome";
    let n = norm s in
    map_amps s (fun _ v -> Complex.div v { re = n; im = 0. })

  let set_bit_zero s ~qubit =
    let mask = 1 lsl qubit in
    let src = sparse_of s in
    let amps = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun k v ->
        let k' = k land lnot mask in
        let sum =
          match Hashtbl.find_opt amps k' with
          | Some prev -> Complex.add prev v
          | None -> v
        in
        if Complex.norm sum > eps then Hashtbl.replace amps k' sum
        else Hashtbl.remove amps k')
      src;
    wrap s amps
end

let pp fmt s =
  let entries = to_alist s in
  let bits k =
    String.init s.num_qubits (fun i ->
        if bit k (s.num_qubits - 1 - i) then '1' else '0')
  in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, (v : Complex.t)) ->
      Format.fprintf fmt "|%s> -> %.4f%+.4fi@," (bits k) v.re v.im)
    entries;
  Format.fprintf fmt "@]"

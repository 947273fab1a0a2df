type summary = {
  max_qubit : int;
  max_bit : int;
  instr_count : int;
  span_count : int;
  site_count : int;
  unitary : bool;
}

type t =
  | Gate of Gate.t
  | Measure of { qubit : Gate.qubit; bit : int; reset : bool }
  | If_bit of { bit : int; value : bool; body : t list }
  | Span of { label : string; peak_ancillas : int; body : t list }
  | Call of node

and node = { id : int; hkey : int; body : t list; summary : summary }

(* ------------------------------------------------------------------ *)
(* Hash-consing.                                                       *)
(*                                                                     *)
(* Nodes are interned bottom-up: the body of a node is built before    *)
(* the node itself, so any [Call] appearing inside a candidate body    *)
(* already points at a canonical node. Structural equality of [Call]s  *)
(* therefore reduces to physical equality of their nodes, which keeps  *)
(* both hashing and comparison O(size of the body's own level) instead *)
(* of O(size of the expanded tree).                                    *)
(* ------------------------------------------------------------------ *)

let combine h v = (h * 0x01000193) lxor (v land max_int)

let rec hash_instr = function
  | Gate g -> combine 0x9e3779b1 (Hashtbl.hash g)
  | Measure { qubit; bit; reset } ->
      combine (combine (combine 2 qubit) bit) (Bool.to_int reset)
  | If_bit { bit; value; body } ->
      combine (combine (combine 3 bit) (Bool.to_int value)) (hash_body body)
  | Span { label; peak_ancillas; body } ->
      combine
        (combine (combine 5 (Hashtbl.hash label)) peak_ancillas)
        (hash_body body)
  | Call n -> combine 7 n.hkey

and hash_body body =
  List.fold_left (fun h i -> combine h (hash_instr i)) 0x811c9dc5 body

let rec equal_instr a b =
  a == b
  ||
  match (a, b) with
  | Gate g, Gate h -> Gate.equal g h
  | Measure m, Measure m' ->
      m.qubit = m'.qubit && m.bit = m'.bit && m.reset = m'.reset
  | If_bit i, If_bit j ->
      i.bit = j.bit && i.value = j.value && equal_body i.body j.body
  | Span s, Span s' ->
      String.equal s.label s'.label
      && s.peak_ancillas = s'.peak_ancillas
      && equal_body s.body s'.body
  | Call n, Call m -> n == m
  | _ -> false

and equal_body a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal_instr x y && equal_body xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Fused scan: one walk computing wire/bit maxima, instruction, span   *)
(* and fault-site totals, and unitarity, with optional gate            *)
(* validation. A [Call] contributes its node's stored summary, so the  *)
(* walk covers one DAG level; validation alone descends into nodes,    *)
(* each distinct one once per call through [memo].                     *)
(* ------------------------------------------------------------------ *)

type scan_acc = {
  mutable mq : int;
  mutable mb : int;
  mutable ni : int;
  mutable ns : int;
  mutable nf : int;
  mutable un : bool;
}

let rec scan_into acc = function
  | [] -> ()
  | Gate g :: rest ->
      List.iter
        (fun q ->
          if q > acc.mq then acc.mq <- q;
          acc.nf <- acc.nf + 1)
        (Gate.qubits g);
      acc.ni <- acc.ni + 1;
      scan_into acc rest
  | Measure { qubit; bit; _ } :: rest ->
      if qubit > acc.mq then acc.mq <- qubit;
      if bit > acc.mb then acc.mb <- bit;
      acc.ni <- acc.ni + 1;
      acc.nf <- acc.nf + 1;
      acc.un <- false;
      scan_into acc rest
  | If_bit { bit; body; _ } :: rest ->
      if bit > acc.mb then acc.mb <- bit;
      acc.ni <- acc.ni + 1;
      acc.nf <- acc.nf + 1;
      acc.un <- false;
      scan_into acc body;
      scan_into acc rest
  | Span { body; _ } :: rest ->
      acc.ns <- acc.ns + 1;
      scan_into acc body;
      scan_into acc rest
  | Call { summary = s; _ } :: rest ->
      if s.max_qubit > acc.mq then acc.mq <- s.max_qubit;
      if s.max_bit > acc.mb then acc.mb <- s.max_bit;
      acc.ni <- acc.ni + s.instr_count;
      acc.ns <- acc.ns + s.span_count;
      acc.nf <- acc.nf + s.site_count;
      acc.un <- acc.un && s.unitary;
      scan_into acc rest

let summarize instrs =
  let acc = { mq = -1; mb = -1; ni = 0; ns = 0; nf = 0; un = true } in
  scan_into acc instrs;
  { max_qubit = acc.mq;
    max_bit = acc.mb;
    instr_count = acc.ni;
    span_count = acc.ns;
    site_count = acc.nf;
    unitary = acc.un }

(* The one per-node memo: a table keyed on node id, local to one pass. *)
let memo f =
  let tbl = Hashtbl.create 64 in
  let rec get n =
    match Hashtbl.find_opt tbl n.id with
    | Some v -> v
    | None ->
        let v = f get n in
        Hashtbl.add tbl n.id v;
        v
  in
  get

let validate_gates instrs =
  let rec go visit = function
    | [] -> ()
    | Gate g :: rest ->
        Gate.validate g;
        go visit rest
    | Measure _ :: rest -> go visit rest
    | (If_bit { body; _ } | Span { body; _ }) :: rest ->
        go visit body;
        go visit rest
    | Call n :: rest ->
        visit n;
        go visit rest
  in
  go (memo (fun visit n -> go visit n.body)) instrs

let scan ?(validate = false) instrs =
  if validate then validate_gates instrs;
  summarize instrs

module Body_tbl = Hashtbl.Make (struct
  type nonrec t = t list

  let hash = hash_body
  let equal = equal_body
end)

let intern_tbl : node Body_tbl.t = Body_tbl.create 1024
let next_node_id = ref 0

(* Hash-cons hit rate: interned / (interned + allocated). *)
let m_nodes_interned =
  Mbu_telemetry.Telemetry.counter
    ~help:"share calls resolved to an existing hash-consed node"
    "mbu_builder_nodes_interned"

let m_nodes_allocated =
  Mbu_telemetry.Telemetry.counter
    ~help:"share calls that allocated a fresh hash-consed node"
    "mbu_builder_nodes_allocated"

let share body =
  match Body_tbl.find_opt intern_tbl body with
  | Some n ->
      Mbu_telemetry.Telemetry.incr m_nodes_interned;
      Call n
  | None ->
      Mbu_telemetry.Telemetry.incr m_nodes_allocated;
      let n =
        { id = !next_node_id; hkey = hash_body body; body;
          summary = summarize body }
      in
      incr next_node_id;
      Body_tbl.add intern_tbl body n;
      Call n

let shared_nodes () = Body_tbl.length intern_tbl

let max_qubit instrs = (scan instrs).max_qubit
let max_bit instrs = (scan instrs).max_bit

(* Spans are weightless bookkeeping: they never count as instructions, and
   neither does a [Call] — a reference counts as its expanded body. *)
let count_instrs instrs = (scan instrs).instr_count
let count_spans instrs = (scan instrs).span_count
let is_unitary instrs = (scan instrs).unitary

(* ------------------------------------------------------------------ *)
(* Adjoint. The adjoint of a shared node is itself shared; [memo]      *)
(* visits each distinct node once per call, and interning makes        *)
(* double-adjoint return the original node physically.                 *)
(* ------------------------------------------------------------------ *)

let adjoint instrs =
  let rec adj call body = List.rev_map (adj_one call) body
  and adj_one call = function
    | Gate g -> Gate (Gate.adjoint g)
    | Span { label; peak_ancillas; body } ->
        Span { label; peak_ancillas; body = adj call body }
    | Call n -> call n
    | Measure _ | If_bit _ ->
        invalid_arg "Instr.adjoint: circuit contains a measurement"
  in
  adj (memo (fun call n -> share (adj call n.body))) instrs

let rec iter_gates f = function
  | [] -> ()
  | Gate g :: rest ->
      f g;
      iter_gates f rest
  | Measure _ :: rest -> iter_gates f rest
  | (If_bit { body; _ } | Span { body; _ } | Call { body; _ }) :: rest ->
      iter_gates f body;
      iter_gates f rest

(* Both rewrites below use a reversed accumulator ([go] conses onto [acc]
   and the caller reverses once) so splicing a body is rev-append-style
   O(|body|) instead of the quadratic [strip body @ strip rest]. *)

let rec strip_spans instrs =
  let rec go acc = function
    | [] -> acc
    | (Span { body; _ } | Call { body; _ }) :: rest -> go (go acc body) rest
    | If_bit { bit; value; body } :: rest ->
        go (If_bit { bit; value; body = strip_spans body } :: acc) rest
    | ((Gate _ | Measure _) as i) :: rest -> go (i :: acc) rest
  in
  List.rev (go [] instrs)

let rec expand_calls instrs =
  let rec go acc = function
    | [] -> acc
    | Call { body; _ } :: rest -> go (go acc body) rest
    | Span { label; peak_ancillas; body } :: rest ->
        go (Span { label; peak_ancillas; body = expand_calls body } :: acc) rest
    | If_bit { bit; value; body } :: rest ->
        go (If_bit { bit; value; body = expand_calls body } :: acc) rest
    | ((Gate _ | Measure _) as i) :: rest -> go (i :: acc) rest
  in
  List.rev (go [] instrs)

let rec pp fmt = function
  | Gate g -> Gate.pp fmt g
  | Measure { qubit; bit; reset } ->
      Format.fprintf fmt "M%s %d -> c%d" (if reset then "r" else "") qubit bit
  | If_bit { bit; value; body } ->
      Format.fprintf fmt "@[<v 2>if c%d = %b {%a}@]" bit value
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body
  | Span { label; body; _ } ->
      Format.fprintf fmt "@[<v 2>span %S {%a}@]" label
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body
  | Call { id; body; _ } ->
      Format.fprintf fmt "@[<v 2>call #%d {%a}@]" id
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp)
        body

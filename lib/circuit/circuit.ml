type t = {
  num_qubits : int;
  num_bits : int;
  instrs : Instr.t list;
  tape : Tape.t option Atomic.t;
}

let make ?(validate = true) ?num_qubits ?num_bits instrs =
  (* Wire/bit maxima come from the node summaries; validation (when
     requested) checks each distinct shared block once per call. *)
  let s = Instr.scan ~validate instrs in
  let min_q = s.Instr.max_qubit + 1 and min_b = s.Instr.max_bit + 1 in
  let num_qubits = Option.value num_qubits ~default:min_q in
  let num_bits = Option.value num_bits ~default:min_b in
  if num_qubits < min_q || num_bits < min_b then
    invalid_arg "Circuit.make: declared width smaller than wires used";
  { num_qubits; num_bits; instrs; tape = Atomic.make None }

let adjoint c =
  { c with instrs = Instr.adjoint c.instrs; tape = Atomic.make None }
let counts ?(mode = Counts.Worst) c = Counts.of_instrs ~mode c.instrs
let num_gates c = Instr.count_instrs c.instrs
let is_unitary c = Instr.is_unitary c.instrs

let append a b =
  { num_qubits = max a.num_qubits b.num_qubits;
    num_bits = max a.num_bits b.num_bits;
    instrs = List.rev_append (List.rev a.instrs) b.instrs;
    tape = Atomic.make None }

(* Compiled on first request, never during set-up. Racing domains may each
   compile; every result is the same tape, so the last write wins. *)
let tape c =
  match Atomic.get c.tape with
  | Some t -> t
  | None ->
      let t = Tape.compile c.instrs in
      Atomic.set c.tape (Some t);
      t

let pp fmt c =
  Format.fprintf fmt "@[<v>circuit: %d qubits, %d bits@,%a@]" c.num_qubits
    c.num_bits
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Instr.pp)
    c.instrs

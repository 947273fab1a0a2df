type kind = X | Z | H | Phase | Cnot | Cz | Swap | Toffoli | Cphase | Measure | If_bit

let kinds = [| X; Z; H; Phase; Cnot; Cz; Swap; Toffoli; Cphase; Measure; If_bit |]

let code = function
  | X -> 0
  | Z -> 1
  | H -> 2
  | Phase -> 3
  | Cnot -> 4
  | Cz -> 5
  | Swap -> 6
  | Toffoli -> 7
  | Cphase -> 8
  | Measure -> 9
  | If_bit -> 10

type span_event = { at : int; guard : int; enter : bool; rpath : string list }

type t = {
  ops : int array;
  phases : Phase.t array;
  source : Instr.t list;
  spans : span_event array option Atomic.t;
}

(* Field layout of a packed op (see the interface). *)
let wire_bits = 6
let phase_shift = 22
let reset_flag = 1 lsl 10
let measure_shift = 11
let if_value_flag = 1 lsl 4
let if_bit_shift = 5
let if_bit_max = (1 lsl 24) - 1
let skip_shift = 29

let kind op = kinds.(op land 15)
let wire op i = (op lsr (4 + (wire_bits * i))) land 63
let q0 op = wire op 0
let q1 op = wire op 1
let q2 op = wire op 2
let measure_bit op = op lsr measure_shift
let measure_reset op = op land reset_flag <> 0
let if_bit op = (op lsr if_bit_shift) land if_bit_max
let if_value op = op land if_value_flag <> 0
let if_skip op = op lsr skip_shift
let length t = Array.length t.ops
let op t i = t.ops.(i)
let phase t op = t.phases.(op lsr phase_shift)

let gate t op =
  match kind op with
  | X -> Gate.X (q0 op)
  | Z -> Gate.Z (q0 op)
  | H -> Gate.H (q0 op)
  | Phase -> Gate.Phase (q0 op, phase t op)
  | Cnot -> Gate.Cnot { control = q0 op; target = q1 op }
  | Cz -> Gate.Cz (q0 op, q1 op)
  | Swap -> Gate.Swap (q0 op, q1 op)
  | Toffoli -> Gate.Toffoli { c1 = q0 op; c2 = q1 op; target = q2 op }
  | Cphase -> Gate.Cphase { control = q0 op; target = q1 op; phase = phase t op }
  | Measure | If_bit -> invalid_arg "Tape.gate: not a gate op"

let compile instrs =
  let ops = Array.make (Instr.count_instrs instrs) 0 in
  let phases = ref [] and nphases = ref 0 in
  let add_phase p =
    phases := p :: !phases;
    incr nphases;
    (!nphases - 1) lsl phase_shift
  in
  let pack k qs =
    List.fold_left ( lor ) (code k)
      (List.mapi
         (fun i q ->
           if q < 0 || q > 63 then
             invalid_arg "Tape.compile: wire index above 63";
           q lsl (4 + (wire_bits * i)))
         qs)
  in
  let pack_gate g =
    match g with
    | Gate.X q -> pack X [ q ]
    | Gate.Z q -> pack Z [ q ]
    | Gate.H q -> pack H [ q ]
    | Gate.Phase (q, p) -> pack Phase [ q ] lor add_phase p
    | Gate.Cnot { control; target } -> pack Cnot [ control; target ]
    | Gate.Cz (a, b) -> pack Cz [ a; b ]
    | Gate.Swap (a, b) -> pack Swap [ a; b ]
    | Gate.Toffoli { c1; c2; target } -> pack Toffoli [ c1; c2; target ]
    | Gate.Cphase { control; target; phase } ->
        pack Cphase [ control; target ] lor add_phase phase
  in
  let pc = ref 0 in
  let emit op =
    ops.(!pc) <- op;
    incr pc
  in
  let rec walk l = List.iter visit l
  and visit = function
    | Instr.Gate g -> emit (pack_gate g)
    | Instr.Measure { qubit; bit; reset } ->
        emit
          (pack Measure [ qubit ]
          lor (if reset then reset_flag else 0)
          lor (bit lsl measure_shift))
    | Instr.If_bit { bit; value; body } ->
        if bit < 0 || bit > if_bit_max then
          invalid_arg "Tape.compile: conditional bit above 2^24 - 1";
        let at = !pc in
        emit 0;
        walk body;
        ops.(at) <-
          code If_bit
          lor (if value then if_value_flag else 0)
          lor (bit lsl if_bit_shift)
          lor ((!pc - at - 1) lsl skip_shift)
    | Instr.Span { body; _ } -> walk body
    | Instr.Call n -> walk n.Instr.body
  in
  walk instrs;
  { ops; phases = Array.of_list (List.rev !phases); source = instrs;
    spans = Atomic.make None }

(* The same walk as [compile], counting ops instead of packing them. *)
let build_span_events instrs =
  let events = ref [] and pc = ref 0 in
  let rec walk guard path l = List.iter (visit guard path) l
  and visit guard path = function
    | Instr.Gate _ | Instr.Measure _ -> incr pc
    | Instr.If_bit { body; _ } ->
        let at = !pc in
        incr pc;
        walk at path body
    | Instr.Span { label; body; _ } ->
        let rpath = label :: path in
        let event enter = { at = !pc; guard; enter; rpath } in
        events := event true :: !events;
        walk guard rpath body;
        events := event false :: !events
    | Instr.Call n -> walk guard path n.Instr.body
  in
  walk (-1) [] instrs;
  Array.of_list (List.rev !events)

(* Racing domains may both build the table; either result is the same. *)
let span_events t =
  match Atomic.get t.spans with
  | Some e -> e
  | None ->
      let e = build_span_events t.source in
      Atomic.set t.spans (Some e);
      e

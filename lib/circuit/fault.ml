type pauli = X | Y | Z

type site =
  | Gate_site of { pos : int; gate : Gate.t; qubit : Gate.qubit }
  | Measure_site of { pos : int; qubit : Gate.qubit; bit : int }
  | Branch_site of { pos : int; bit : int; value : bool }

type t =
  | Pauli_after of { pos : int; qubit : Gate.qubit; pauli : pauli }
  | Flip_outcome of { bit : int }
  | Skip_block of { pos : int }

let num_sites instrs = (Instr.scan instrs).Instr.site_count

(* Walk the program in the order of [sites], consuming [k] one site at a
   time and advancing [pos] one slot per instruction. A [Call] whose
   summary shows fewer than [k] remaining sites is skipped whole. *)
let site instrs k0 =
  if k0 < 0 || k0 >= num_sites instrs then
    invalid_arg "Fault.site: index out of range";
  let exception Found of site in
  let pos = ref 0 and k = ref k0 in
  let rec walk l = List.iter visit l
  and visit = function
    | Instr.Gate g ->
        let qs = Gate.qubits g in
        (match List.nth_opt qs !k with
         | Some qubit ->
             raise (Found (Gate_site { pos = !pos; gate = g; qubit }))
         | None -> k := !k - List.length qs);
        incr pos
    | Instr.Measure { qubit; bit; _ } ->
        if !k = 0 then raise (Found (Measure_site { pos = !pos; qubit; bit }));
        decr k;
        incr pos
    | Instr.If_bit { bit; value; body } ->
        if !k = 0 then raise (Found (Branch_site { pos = !pos; bit; value }));
        decr k;
        incr pos;
        walk body
    | Instr.Span { body; _ } -> walk body
    | Instr.Call n ->
        let s = n.Instr.summary in
        if !k < s.Instr.site_count then walk n.Instr.body
        else begin
          k := !k - s.Instr.site_count;
          pos := !pos + s.Instr.instr_count
        end
  in
  (* The range check above guarantees the walk finds site [k0]. *)
  match walk instrs with () -> assert false | exception Found s -> s

let sites instrs =
  let acc = ref [] in
  let rec walk pos l = List.fold_left walk_instr pos l
  and walk_instr pos = function
    | Instr.Gate g ->
        List.iter
          (fun q -> acc := Gate_site { pos; gate = g; qubit = q } :: !acc)
          (Gate.qubits g);
        pos + 1
    | Instr.Measure { qubit; bit; _ } ->
        acc := Measure_site { pos; qubit; bit } :: !acc;
        pos + 1
    | Instr.If_bit { bit; value; body } ->
        acc := Branch_site { pos; bit; value } :: !acc;
        walk (pos + 1) body
    | Instr.Span { body; _ } -> walk pos body
    | Instr.Call n -> walk pos n.Instr.body
  in
  ignore (walk 0 instrs);
  List.rev !acc

let of_site ?(pauli = X) = function
  | Gate_site { pos; qubit; _ } -> Pauli_after { pos; qubit; pauli }
  | Measure_site { bit; _ } -> Flip_outcome { bit }
  | Branch_site { pos; _ } -> Skip_block { pos }

let pauli_gates p q =
  match p with
  | X -> [ Gate.X q ]
  | Z -> [ Gate.Z q ]
  | Y -> [ Gate.Z q; Gate.X q ]

let pauli_name = function X -> "X" | Y -> "Y" | Z -> "Z"

let to_string = function
  | Pauli_after { pos; qubit; pauli } ->
      Printf.sprintf "%s on qubit %d after instr %d" (pauli_name pauli) qubit pos
  | Flip_outcome { bit } -> Printf.sprintf "flip outcome of bit %d" bit
  | Skip_block { pos } -> Printf.sprintf "skip conditional at instr %d" pos

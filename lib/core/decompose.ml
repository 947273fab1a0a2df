open Mbu_circuit

let t = Phase.theta 3
let t_dag = Phase.neg t
let s = Phase.theta 2

(* Nielsen-Chuang figure 4.9. *)
let toffoli_7t ~c1 ~c2 ~target =
  [ Gate.H target;
    Gate.Cnot { control = c2; target };
    Gate.Phase (target, t_dag);
    Gate.Cnot { control = c1; target };
    Gate.Phase (target, t);
    Gate.Cnot { control = c2; target };
    Gate.Phase (target, t_dag);
    Gate.Cnot { control = c1; target };
    Gate.Phase (c2, t);
    Gate.Phase (target, t);
    Gate.H target;
    Gate.Cnot { control = c1; target = c2 };
    Gate.Phase (c1, t);
    Gate.Phase (c2, t_dag);
    Gate.Cnot { control = c1; target = c2 } ]

(* Figure 10. After H, the T ladder applies the phase
   (pi/4)(tau - (tau XOR a) + (tau XOR a XOR b) - (tau XOR b))
     = pi.a.b.tau - (pi/2).a.b,
   i.e. a CCZ onto the fresh qubit up to a residual (-i)^{ab}; the final H
   turns the CCZ into the AND and the S on the AND bit repairs the
   residual. *)
let and_4t ~c1 ~c2 ~target =
  [ Gate.H target;
    Gate.Phase (target, t);
    Gate.Cnot { control = c1; target };
    Gate.Phase (target, t_dag);
    Gate.Cnot { control = c2; target };
    Gate.Phase (target, t);
    Gate.Cnot { control = c1; target };
    Gate.Phase (target, t_dag);
    Gate.Cnot { control = c2; target };
    Gate.H target;
    Gate.Phase (target, s) ]

let circuit ?(fresh_target_and = false) (c : Circuit.t) =
  let expand = if fresh_target_and then and_4t else toffoli_7t in
  (* A shared block rewrites to a shared block: the rewritten body is
     re-interned once per distinct node and every reference reuses it. *)
  let rec rewrite call = function
    | [] -> []
    | Instr.Gate (Gate.Toffoli { c1; c2; target }) :: rest ->
        List.map (fun g -> Instr.Gate g) (expand ~c1 ~c2 ~target)
        @ rewrite call rest
    | (Instr.Gate _ as i) :: rest | (Instr.Measure _ as i) :: rest ->
        i :: rewrite call rest
    | Instr.If_bit { bit; value; body } :: rest ->
        Instr.If_bit { bit; value; body = rewrite call body } :: rewrite call rest
    | Instr.Span { label; peak_ancillas; body } :: rest ->
        Instr.Span { label; peak_ancillas; body = rewrite call body }
        :: rewrite call rest
    | Instr.Call node :: rest -> call node :: rewrite call rest
  in
  let call = Instr.memo (fun call node -> Instr.share (rewrite call node.Instr.body)) in
  Circuit.make ~num_qubits:c.Circuit.num_qubits ~num_bits:c.Circuit.num_bits
    (rewrite call c.Circuit.instrs)

let t_count ~mode instrs =
  let weight = Counts.branch_weight mode in
  let is_t = function
    | Gate.Phase (_, p) -> Phase.log2_den p = 3
    | _ -> false
  in
  let rec count w = function
    | [] -> 0.
    | Instr.Gate g :: rest -> (if is_t g then w else 0.) +. count w rest
    | Instr.Measure _ :: rest -> count w rest
    | Instr.If_bit { body; _ } :: rest -> count (w *. weight) body +. count w rest
    | (Instr.Span { body; _ } | Instr.Call { body; _ }) :: rest ->
        count w body +. count w rest
  in
  count 1. instrs

(* Tests for the circuit IR substrate: phases, gates, instructions, builder,
   counting, depth. *)

open Mbu_circuit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Phase *)

let test_phase_normalization () =
  check_bool "2/4 = 1/2" true Phase.(equal (make ~num:2 ~log2_den:2) (make ~num:1 ~log2_den:1));
  check_bool "full turn is zero" true Phase.(is_zero (make ~num:8 ~log2_den:3));
  check_bool "zero" true (Phase.is_zero Phase.zero);
  check_int "reduced denominator" 3 Phase.(log2_den (make ~num:2 ~log2_den:4));
  check_int "reduced numerator" 1 Phase.(num (make ~num:2 ~log2_den:4))

let test_phase_arith () =
  let open Phase in
  check_bool "theta2+theta2 = theta1" true (equal (add (theta 2) (theta 2)) (theta 1));
  check_bool "p + (-p) = 0" true (is_zero (add (theta 5) (neg (theta 5))));
  check_float "theta1 = pi" Float.pi (to_radians (theta 1));
  check_float "theta2 = pi/2" (Float.pi /. 2.) (to_radians (theta 2))

let prop_phase_add_assoc =
  let gen = QCheck.Gen.(pair (int_bound 63) (int_range 0 6)) in
  let arb =
    QCheck.make
      QCheck.Gen.(triple gen gen gen)
      ~print:(fun ((a, b), (c, d), (e, f)) ->
        Printf.sprintf "%d/2^%d %d/2^%d %d/2^%d" a b c d e f)
  in
  QCheck.Test.make ~name:"phase addition associative" ~count:200 arb
    (fun ((a, b), (c, d), (e, f)) ->
      let p = Phase.make ~num:a ~log2_den:b
      and q = Phase.make ~num:c ~log2_den:d
      and r = Phase.make ~num:e ~log2_den:f in
      Phase.(equal (add (add p q) r) (add p (add q r))))

(* ------------------------------------------------------------------ *)
(* Gate *)

let test_gate_adjoint () =
  let g = Gate.Cphase { control = 0; target = 1; phase = Phase.theta 3 } in
  check_bool "cphase adjoint adjoint = id" true Gate.(equal g (adjoint (adjoint g)));
  check_bool "toffoli self-adjoint" true
    Gate.(
      equal
        (Toffoli { c1 = 0; c2 = 1; target = 2 })
        (adjoint (Toffoli { c1 = 0; c2 = 1; target = 2 })))

let test_gate_validate () =
  Alcotest.check_raises "cnot same wire" (Invalid_argument "Gate: repeated wire")
    (fun () -> Gate.validate (Gate.Cnot { control = 3; target = 3 }));
  Alcotest.check_raises "negative wire" (Invalid_argument "Gate: negative wire")
    (fun () -> Gate.validate (Gate.X (-1)))

let test_gate_symmetry () =
  check_bool "cz symmetric" true Gate.(equal (Cz (0, 1)) (Cz (1, 0)));
  check_bool "toffoli control symmetric" true
    Gate.(
      equal
        (Toffoli { c1 = 0; c2 = 1; target = 2 })
        (Toffoli { c1 = 1; c2 = 0; target = 2 }))

(* ------------------------------------------------------------------ *)
(* Instr / Circuit *)

let test_instr_adjoint_reverses () =
  let instrs =
    [ Instr.Gate (Gate.X 0); Instr.Gate (Gate.Cnot { control = 0; target = 1 });
      Instr.Gate (Gate.Phase (1, Phase.theta 2)) ]
  in
  match Instr.adjoint instrs with
  | [ Instr.Gate (Gate.Phase (1, p)); Instr.Gate (Gate.Cnot _); Instr.Gate (Gate.X 0) ] ->
      check_bool "phase negated" true (Phase.equal p (Phase.neg (Phase.theta 2)))
  | _ -> Alcotest.fail "unexpected adjoint shape"

let test_instr_adjoint_rejects_measure () =
  Alcotest.check_raises "measurement not invertible"
    (Invalid_argument "Instr.adjoint: circuit contains a measurement")
    (fun () ->
      ignore (Instr.adjoint [ Instr.Measure { qubit = 0; bit = 0; reset = false } ]))

let test_circuit_widths () =
  let c = Circuit.make [ Instr.Gate (Gate.Cnot { control = 0; target = 5 }) ] in
  check_int "inferred qubits" 6 c.Circuit.num_qubits;
  Alcotest.check_raises "declared too narrow"
    (Invalid_argument "Circuit.make: declared width smaller than wires used")
    (fun () ->
      ignore (Circuit.make ~num_qubits:3 [ Instr.Gate (Gate.X 4) ]))

(* ------------------------------------------------------------------ *)
(* Builder *)

let test_builder_ancilla_reuse () =
  let b = Builder.create () in
  let r = Builder.fresh_register b "x" 3 in
  ignore r;
  let a1 = Builder.alloc_ancilla b in
  Builder.free_ancilla b a1;
  let a2 = Builder.alloc_ancilla b in
  check_int "ancilla reused" a1 a2;
  Builder.free_ancilla b a2;
  check_int "high-water mark" 4 (Builder.num_qubits b);
  check_int "inputs" 3 (Builder.input_qubits b);
  check_int "peak ancillas" 1 (Builder.ancilla_qubits b)

let test_builder_capture () =
  let b = Builder.create () in
  let q0 = Builder.fresh_qubit b and q1 = Builder.fresh_qubit b in
  Builder.x b q0;
  let (), captured = Builder.capture b (fun () -> Builder.cnot b ~control:q0 ~target:q1) in
  check_int "captured one instr" 1 (List.length captured);
  let c = Builder.to_circuit b in
  check_int "capture did not emit" 1 (Circuit.num_gates c)

let test_builder_emit_adjoint () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  Builder.emit_adjoint b (fun () ->
      Builder.phase b q (Phase.theta 4);
      Builder.h b q);
  match (Builder.to_circuit b).Circuit.instrs with
  | [ Instr.Gate (Gate.H _); Instr.Gate (Gate.Phase (_, p)) ] ->
      check_bool "negated" true (Phase.equal p (Phase.neg (Phase.theta 4)))
  | _ -> Alcotest.fail "unexpected adjoint emission"

let test_builder_if_nesting () =
  let b = Builder.create () in
  let q = Builder.fresh_qubit b in
  let bit = Builder.measure b q in
  Builder.if_bit b bit (fun () ->
      Builder.x b q;
      Builder.x b q);
  let c = Builder.to_circuit b in
  let worst = Circuit.counts ~mode:Counts.Worst c in
  let best = Circuit.counts ~mode:Counts.Best c in
  let expected = Circuit.counts ~mode:(Counts.Expected 0.5) c in
  check_float "worst X" 2. worst.Counts.x;
  check_float "best X" 0. best.Counts.x;
  check_float "expected X" 1. expected.Counts.x;
  check_float "measure counted" 1. worst.Counts.measure

(* ------------------------------------------------------------------ *)
(* Counts *)

let test_counts_nested_expectation () =
  (* An If inside an If weights by p^2. *)
  let body_inner = [ Instr.Gate (Gate.X 0) ] in
  let body_outer =
    [ Instr.Gate (Gate.Z 0); Instr.If_bit { bit = 1; value = true; body = body_inner } ]
  in
  let instrs =
    [ Instr.Measure { qubit = 0; bit = 0; reset = false };
      Instr.Measure { qubit = 0; bit = 1; reset = false };
      Instr.If_bit { bit = 0; value = true; body = body_outer } ]
  in
  let c = Counts.of_instrs ~mode:(Counts.Expected 0.5) instrs in
  check_float "z weighted 1/2" 0.5 c.Counts.z;
  check_float "x weighted 1/4" 0.25 c.Counts.x

let test_counts_qft_units () =
  let c = Counts.qft_gates 5 in
  check_float "qft_5 h" 5. c.Counts.h;
  check_float "qft_5 crot" 10. c.Counts.cphase;
  check_float "one qft unit" 1. (Counts.qft_units ~m:5 c)

(* ------------------------------------------------------------------ *)
(* Depth *)

let test_depth_serial_vs_parallel () =
  let serial =
    [ Instr.Gate (Gate.X 0); Instr.Gate (Gate.X 0); Instr.Gate (Gate.X 0) ]
  in
  let parallel =
    [ Instr.Gate (Gate.X 0); Instr.Gate (Gate.X 1); Instr.Gate (Gate.X 2) ]
  in
  check_float "serial depth" 3. (Depth.of_instrs ~mode:(`Expected 1.) serial).Depth.total;
  check_float "parallel depth" 1. (Depth.of_instrs ~mode:(`Expected 1.) parallel).Depth.total

let test_toffoli_depth () =
  let instrs =
    [ Instr.Gate (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 });
      Instr.Gate (Gate.Cnot { control = 2; target = 3 });
      Instr.Gate (Gate.Toffoli { c1 = 3; c2 = 4; target = 5 });
      (* independent toffoli on fresh wires shares a layer with the first *)
      Instr.Gate (Gate.Toffoli { c1 = 6; c2 = 7; target = 8 }) ]
  in
  let d = Depth.of_instrs ~mode:(`Expected 1.) instrs in
  check_float "toffoli depth chains through cnot" 2. d.Depth.toffoli;
  check_float "total depth" 3. d.Depth.total

let test_depth_conditional () =
  let instrs =
    [ Instr.Measure { qubit = 0; bit = 0; reset = false };
      Instr.If_bit
        { bit = 0; value = true; body = [ Instr.Gate (Gate.Z 1) ] } ]
  in
  let worst = Depth.of_instrs ~mode:(`Expected 1.) instrs in
  let expected = Depth.of_instrs ~mode:(`Expected 0.5) instrs in
  check_float "worst: measure then z" 2. worst.Depth.total;
  check_float "expected: measure then half z" 1.5 expected.Depth.total

(* ------------------------------------------------------------------ *)

let suite =
  ( "circuit",
    [ Alcotest.test_case "phase normalization" `Quick test_phase_normalization;
      Alcotest.test_case "phase arithmetic" `Quick test_phase_arith;
      QCheck_alcotest.to_alcotest prop_phase_add_assoc;
      Alcotest.test_case "gate adjoint" `Quick test_gate_adjoint;
      Alcotest.test_case "gate validation" `Quick test_gate_validate;
      Alcotest.test_case "gate symmetry" `Quick test_gate_symmetry;
      Alcotest.test_case "instr adjoint reverses" `Quick test_instr_adjoint_reverses;
      Alcotest.test_case "instr adjoint rejects measure" `Quick
        test_instr_adjoint_rejects_measure;
      Alcotest.test_case "circuit widths" `Quick test_circuit_widths;
      Alcotest.test_case "builder ancilla reuse" `Quick test_builder_ancilla_reuse;
      Alcotest.test_case "builder capture" `Quick test_builder_capture;
      Alcotest.test_case "builder emit_adjoint" `Quick test_builder_emit_adjoint;
      Alcotest.test_case "builder if + count modes" `Quick test_builder_if_nesting;
      Alcotest.test_case "nested conditional expectation" `Quick
        test_counts_nested_expectation;
      Alcotest.test_case "qft units" `Quick test_counts_qft_units;
      Alcotest.test_case "depth serial vs parallel" `Quick
        test_depth_serial_vs_parallel;
      Alcotest.test_case "toffoli depth" `Quick test_toffoli_depth;
      Alcotest.test_case "conditional depth" `Quick test_depth_conditional ] )

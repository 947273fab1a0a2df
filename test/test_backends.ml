(* Backend-equivalence property tests: the classical track with its
   in-place sparse fallback (Fast) and the seed's rebuild-per-gate oracle
   (Reference) must agree run-for-run — same measurement outcomes, same
   executed counts, same final state — on randomized modadd circuits for
   every Mod_add spec, and the parallel multi-shot runner must return
   jobs-independent output. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core
open Mbu_robustness

let qtest = QCheck_alcotest.to_alcotest

let specs =
  [ ("cdkpm", Mod_add.spec_cdkpm);
    ("gidney", Mod_add.spec_gidney);
    ("mixed", Mod_add.spec_mixed) ]

let spec_of_int i = List.nth specs (i mod List.length specs)

(* Random odd modulus with the top bit set, and operands below it. *)
let gen_modadd_case =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    int_range 0 ((1 lsl (n - 1)) - 1) >>= fun plow ->
    let p = max 3 (((1 lsl (n - 1)) lor plow) lor 1) in
    map3
      (fun s x y -> (s, n, p, x mod p, y mod p))
      (int_bound 2) (int_bound (p - 1)) (int_bound (p - 1)))

let print_case (s, n, p, x, y) =
  Printf.sprintf "spec=%s n=%d p=%d x=%d y=%d" (fst (spec_of_int s)) n p x y

let arb_modadd_case = QCheck.make gen_modadd_case ~print:print_case

let build_modadd spec ~n ~p =
  let b = Builder.create () in
  let x = Builder.fresh_register b "x" n in
  let y = Builder.fresh_register b "y" n in
  Mod_add.modadd ~mbu:true spec b ~p ~x ~y;
  (b, x, y)

let run_engine engine ~seed c ~init =
  Sim.run ~rng:(Random.State.make [| seed; 0xe9 |]) ~engine c ~init

(* Both engines consume the same RNG stream, so a fixed seed must give
   identical classical outcomes and (up to float noise) identical states. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"Fast = Reference on modadd (all specs)"
    ~count:120 arb_modadd_case (fun (s, n, p, x_val, y_val) ->
      let _, spec = spec_of_int s in
      let b, x, y = build_modadd spec ~n ~p in
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, x_val); (y, y_val) ]
      in
      let seed = (s * 7919) + (x_val * 131) + y_val in
      let rf = run_engine Sim.Fast ~seed c ~init in
      let rr = run_engine Sim.Reference ~seed c ~init in
      let same_class (a : Sim.run) (b : Sim.run) =
        a.Sim.bits = b.Sim.bits
        && Counts.approx_equal a.Sim.executed b.Sim.executed
      in
      same_class rf rr
      && State.fidelity rf.Sim.state rr.Sim.state > 1. -. 1e-9
      && Sim.register_value rf.Sim.state y = Some ((x_val + y_val) mod p)
      && Sim.register_value rf.Sim.state x = Some x_val
      && Sim.wires_zero rf.Sim.state ~except:[ x; y ])

(* Measurement-free random unitaries exercise the sparse kernel on genuinely
   dense states (H puts every wire in superposition); the in-place kernel
   must match the rebuild-per-gate oracle exactly. *)
let gen_gate_seq =
  QCheck.Gen.(
    let nq = 5 in
    list_size (int_range 5 60)
      (int_range 0 7 >>= fun kind ->
       int_range 0 (nq - 1) >>= fun a ->
       int_range 0 (nq - 2) >>= fun db ->
       int_range 0 (nq - 3) >>= fun dc' ->
       (* distinct wires: b is a shifted by 1..nq-1; c skips both *)
       let b = (a + 1 + db) mod nq in
       let c =
         let c0 = (a + 1 + ((db + 1 + dc') mod (nq - 1))) mod nq in
         c0
       in
       return
         (match kind with
         | 0 -> Gate.X a
         | 1 -> Gate.H a
         | 2 -> Gate.Z a
         | 3 -> Gate.Cnot { control = a; target = b }
         | 4 -> Gate.Toffoli { c1 = a; c2 = b; target = c }
         | 5 -> Gate.Swap (a, b)
         | 6 -> Gate.Phase (a, Phase.theta 2)
         | _ -> Gate.Cphase { control = a; target = b; phase = Phase.theta 3 })))

let arb_gate_seq =
  QCheck.make gen_gate_seq ~print:(fun gs ->
      Printf.sprintf "%d gates" (List.length gs))

let prop_sparse_kernel_matches_reference_dense =
  QCheck.Test.make ~name:"in-place sparse kernel = oracle on dense states"
    ~count:100 arb_gate_seq (fun gates ->
      let c =
        Circuit.make ~num_qubits:5 (List.map (fun g -> Instr.Gate g) gates)
      in
      let init = State.basis ~num_qubits:5 0 in
      let rr = run_engine Sim.Reference ~seed:1 c ~init in
      let rf = run_engine Sim.Fast ~seed:1 c ~init in
      State.fidelity rf.Sim.state rr.Sim.state > 1. -. 1e-9
      && abs_float (State.norm rf.Sim.state -. 1.) < 1e-9)

(* run_shots must be a pure function of (seed, shot index): identical run
   arrays and identical merged statistics whatever the fan-out. *)
let run_key (r : Sim.run) reg =
  (Sim.register_value r.Sim.state reg, Array.to_list r.Sim.bits,
   Counts.total_gates r.Sim.executed)

let prop_run_shots_jobs_independent =
  QCheck.Test.make ~name:"run_shots: jobs=1 and jobs=4 identical" ~count:40
    arb_modadd_case (fun (s, n, p, x_val, y_val) ->
      let _, spec = spec_of_int s in
      let b, x, y = build_modadd spec ~n ~p in
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:(Builder.num_qubits b)
          [ (x, x_val); (y, y_val) ]
      in
      let shots = 16 in
      let st1 = Sim.new_stats () and st4 = Sim.new_stats () in
      let r1 = Sim.run_shots ~seed:s ~jobs:1 ~stats:st1 ~shots c ~init in
      let r4 = Sim.run_shots ~seed:s ~jobs:4 ~stats:st4 ~shots c ~init in
      Array.length r1 = shots
      && Array.for_all2 (fun a b -> run_key a y = run_key b y) r1 r4
      && Sim.runs st1 = shots
      && Sim.runs st4 = shots
      && Sim.taken_frequency st1 = Sim.taken_frequency st4
      && Sim.branch_bits st1 = Sim.branch_bits st4
      && List.for_all
           (fun bit ->
             Sim.bit_taken_frequency st1 bit = Sim.bit_taken_frequency st4 bit)
           (Sim.branch_bits st1))

(* The parallel runner with per-shot stats must tally exactly what a
   sequential loop with the stats_hook tallies. *)
let test_run_shots_stats_match_sequential () =
  let b, x, y = build_modadd Mod_add.spec_cdkpm ~n:4 ~p:13 in
  let c = Builder.to_circuit b in
  let init =
    Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, 7); (y, 11) ]
  in
  let shots = 100 in
  let st_par = Sim.new_stats () in
  let runs_par = Sim.run_shots ~seed:5 ~jobs:4 ~stats:st_par ~shots c ~init in
  (* replay each shot sequentially through run_shots with one shot and the
     offset seed is not possible (the split is internal), so compare against
     jobs=1 with the same seed instead, which must be bit-identical. *)
  let st_seq = Sim.new_stats () in
  let runs_seq = Sim.run_shots ~seed:5 ~jobs:1 ~stats:st_seq ~shots c ~init in
  Alcotest.(check int) "runs" (Sim.runs st_seq) (Sim.runs st_par);
  Alcotest.(check (list int)) "branch bits" (Sim.branch_bits st_seq)
    (Sim.branch_bits st_par);
  Alcotest.(check bool) "per-shot equality" true
    (Array.for_all2
       (fun (a : Sim.run) (b : Sim.run) ->
         run_key a y = run_key b y)
       runs_seq runs_par);
  List.iter
    (fun bit ->
      Alcotest.(check (option (float 1e-12)))
        (Printf.sprintf "bit %d taken frequency" bit)
        (Sim.bit_taken_frequency st_seq bit)
        (Sim.bit_taken_frequency st_par bit))
    (Sim.branch_bits st_seq)

(* sample_register without ?rng: deterministic, jobs-independent tallies. *)
let test_sample_register_jobs_independent () =
  let b = Builder.create () in
  let q = Builder.fresh_register b "q" 3 in
  Array.iter (fun w -> Builder.h b w) (Register.qubits q);
  let c = Builder.to_circuit b in
  let init = Sim.init_registers ~num_qubits:(Builder.num_qubits b) [] in
  let t1 = Sim.sample_register ~seed:9 ~jobs:1 ~shots:64 c ~init q in
  let t4 = Sim.sample_register ~seed:9 ~jobs:4 ~shots:64 c ~init q in
  Alcotest.(check (list (pair int int))) "tallies equal" t1 t4;
  Alcotest.(check int) "total shots" 64
    (List.fold_left (fun acc (_, k) -> acc + k) 0 t1)

(* ------------------------------------------------------------------ *)
(* The tape interpreter against the oracle on arbitrary adaptive programs:
   every gate kind, measurements with and without reset, conditionals
   (nested, inside spans and shared blocks) on up to 8 wires. *)

let gen_program =
  QCheck.Gen.(
    int_range 2 8 >>= fun nq ->
    let wires k =
      (* [k] distinct wires *)
      let rec pick acc =
        if List.length acc = k then return (List.rev acc)
        else int_bound (nq - 1) >>= fun q ->
          if List.mem q acc then pick acc else pick (q :: acc)
      in
      pick []
    in
    let gate =
      int_range 0 8 >>= fun kind ->
      let arity = match kind with 0 | 1 | 2 | 3 -> 1 | 7 -> 3 | _ -> 2 in
      if arity > nq then return (Gate.X 0)
      else
        wires arity >>= fun w ->
        int_range 1 4 >>= fun k ->
        let q i = List.nth w i in
        return
          (match kind with
          | 0 -> Gate.X (q 0)
          | 1 -> Gate.Z (q 0)
          | 2 -> Gate.H (q 0)
          | 3 -> Gate.Phase (q 0, Phase.theta k)
          | 4 -> Gate.Cnot { control = q 0; target = q 1 }
          | 5 -> Gate.Cz (q 0, q 1)
          | 6 -> Gate.Swap (q 0, q 1)
          | 7 -> Gate.Toffoli { c1 = q 0; c2 = q 1; target = q 2 }
          | _ -> Gate.Cphase { control = q 0; target = q 1; phase = Phase.theta k })
    in
    (* [bits] measured so far; every measurement writes a fresh bit, and a
       conditional reads one already written. *)
    let rec block depth bits len =
      if len = 0 then return ([], bits)
      else
        frequency
          [ (6, map (fun g -> Instr.Gate g) gate >|= fun i -> (i, bits));
            (2,
             map2
               (fun qubit reset -> (Instr.Measure { qubit; bit = bits; reset }, bits + 1))
               (int_bound (nq - 1)) bool);
            ((if bits > 0 && depth < 2 then 2 else 0),
             int_bound (max 0 (bits - 1)) >>= fun bit ->
             bool >>= fun value ->
             int_range 0 4 >>= fun n ->
             block (depth + 1) bits n >|= fun (body, bits) ->
             (Instr.If_bit { bit; value; body }, bits));
            ((if depth < 2 then 1 else 0),
             int_range 0 3 >>= fun n ->
             block (depth + 1) bits n >|= fun (body, bits) ->
             ((if n mod 2 = 0 then Instr.Span { label = "s"; peak_ancillas = 0; body }
               else Instr.share body), bits)) ]
        >>= fun (i, bits) ->
        block depth bits (len - 1) >|= fun (rest, bits) -> (i :: rest, bits)
    in
    int_range 1 30 >>= fun len ->
    block 0 0 len >>= fun (instrs, _) ->
    int_bound ((1 lsl nq) - 1) >>= fun init ->
    int_bound 1000 >|= fun seed -> (nq, instrs, init, seed))

let arb_program =
  QCheck.make gen_program ~print:(fun (nq, instrs, init, seed) ->
      Format.asprintf "%d wires, init %d, seed %d:@.%a" nq init seed
        (Format.pp_print_list Instr.pp) instrs)

(* Cases whose Fast run ends off the product track, i.e. in the sparse
   kernel: the property must reach both tracks to mean anything. *)
let left_product_track = ref 0

let prop_tape_matches_reference =
  QCheck.Test.make ~name:"tape = oracle on random adaptive programs" ~count:400
    arb_program (fun (nq, instrs, init, seed) ->
      let c = Circuit.make ~num_qubits:nq instrs in
      let init = State.basis ~num_qubits:nq init in
      let rf = run_engine Sim.Fast ~seed c ~init in
      let rr = run_engine Sim.Reference ~seed c ~init in
      if not (State.is_classical rf.Sim.state) then incr left_product_track;
      rf.Sim.bits = rr.Sim.bits
      && rf.Sim.executed = rr.Sim.executed
      && State.fidelity rf.Sim.state rr.Sim.state >= 1. -. 1e-9)

let test_tape_matches_reference () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x7a9e |])
    prop_tape_matches_reference;
  Alcotest.(check bool) "some programs leave the product track" true
    (!left_product_track > 0)

(* Every catalogue family: seeded random fault plans and both arms of every
   forced conditional classify the same way, with the same number of
   injected faults, on both engines. *)
let test_catalogue_faults_match_reference () =
  let attempt engine ~seed ?force ?faults (spec : Engine.spec) =
    match
      Sim.run ~engine ~rng:(Random.State.make [| seed |]) ?force ?faults
        spec.Engine.circuit ~init:spec.Engine.init
    with
    | r -> (Engine.outcome_name (Engine.classify_run spec r), r.Sim.injected)
    | exception Mbu_error.Error _ -> ("detected", -1)
    | exception Invalid_argument _ -> ("detected", -1)
  in
  let agree name ~seed ?force ?faults spec =
    Alcotest.(check (pair string int)) name
      (attempt Sim.Reference ~seed ?force ?faults spec)
      (attempt Sim.Fast ~seed ?force ?faults spec)
  in
  List.iter
    (fun (e : Catalogue.entry) ->
      let spec = e.Catalogue.make ~n:4 ~p:11 in
      let instrs = spec.Engine.circuit.Circuit.instrs in
      let sites = Fault.num_sites instrs in
      let rng = Random.State.make [| Hashtbl.hash e.Catalogue.name |] in
      for run = 0 to 23 do
        let faults =
          List.init (1 + (run mod 3)) (fun _ ->
              let pauli = List.nth [ Fault.X; Fault.Y; Fault.Z ] (Random.State.int rng 3) in
              Fault.of_site ~pauli (Fault.site instrs (Random.State.int rng sites)))
        in
        agree
          (Printf.sprintf "%s: %s" e.Catalogue.name
             (String.concat "; " (List.map Fault.to_string faults)))
          ~seed:run ~faults spec
      done;
      List.iter
        (function
          | Fault.Branch_site { bit; _ } ->
              List.iter
                (fun v ->
                  agree
                    (Printf.sprintf "%s: bit %d forced %b" e.Catalogue.name bit v)
                    ~seed:bit
                    ~force:(fun b -> if b = bit then Some v else None)
                    spec)
                [ true; false ]
          | Fault.Gate_site _ | Fault.Measure_site _ -> ())
        (Fault.sites instrs))
    Catalogue.all

(* The tape cached on a circuit must never be served for another program:
   [adjoint] and [append] of a circuit that has already run execute their
   own instructions. *)
let test_tape_cache_not_stale () =
  let c =
    Circuit.make ~num_qubits:3
      [ Instr.Gate (Gate.X 0); Instr.Gate (Gate.Cnot { control = 0; target = 1 });
        Instr.Gate (Gate.Toffoli { c1 = 0; c2 = 1; target = 2 }) ]
  in
  let d = Circuit.make ~num_qubits:3 [ Instr.Gate (Gate.X 2) ] in
  let value c = State.classical_value (Sim.run c ~init:(State.basis ~num_qubits:3 0)).Sim.state in
  Alcotest.(check (option int)) "circuit" (Some 0b111) (value c);
  Alcotest.(check (option int)) "appended part" (Some 0b100) (value d);
  let fresh instrs = Circuit.make ~num_qubits:3 instrs in
  Alcotest.(check (option int)) "adjoint runs its own program"
    (value (fresh (Instr.adjoint c.Circuit.instrs)))
    (value (Circuit.adjoint c));
  Alcotest.(check (option int)) "adjoint of the run circuit" (Some 0b001)
    (value (Circuit.adjoint c));
  Alcotest.(check (option int)) "append runs its own program" (Some 0b011)
    (value (Circuit.append c d));
  Alcotest.(check int) "append executes both parts" 4
    (int_of_float
       (Counts.total_gates
          (Sim.run (Circuit.append c d) ~init:(State.basis ~num_qubits:3 0)).Sim.executed))

(* The first run of a circuit may happen on several domains at once: each
   compiles or reads the tape, and the result equals a sequential run. *)
let test_first_run_parallel () =
  let fresh () = build_modadd Mod_add.spec_mixed ~n:4 ~p:13 in
  let run ~jobs =
    let b, x, y = fresh () in
    let c = Builder.to_circuit b in
    let init =
      Sim.init_registers ~num_qubits:(Builder.num_qubits b) [ (x, 9); (y, 12) ]
    in
    let st = Sim.new_stats () in
    let runs = Sim.run_shots ~seed:3 ~jobs ~stats:st ~shots:32 c ~init in
    (Array.to_list (Array.map (fun r -> run_key r y) runs), Sim.taken_frequency st)
  in
  Alcotest.(check bool) "jobs = 2 on a never-run circuit = jobs = 1" true
    (run ~jobs:2 = run ~jobs:1)

let suite =
  ( "backends",
    [ qtest prop_engines_agree;
      qtest prop_sparse_kernel_matches_reference_dense;
      qtest prop_run_shots_jobs_independent;
      Alcotest.test_case "run_shots stats = sequential stats" `Quick
        test_run_shots_stats_match_sequential;
      Alcotest.test_case "sample_register jobs-independent" `Quick
        test_sample_register_jobs_independent;
      Alcotest.test_case "tape = oracle on random programs" `Quick
        test_tape_matches_reference;
      Alcotest.test_case "catalogue faults and forced arms = oracle" `Quick
        test_catalogue_faults_match_reference;
      Alcotest.test_case "adjoint/append never reuse a stale tape" `Quick
        test_tape_cache_not_stale;
      Alcotest.test_case "first run at jobs=2 = jobs=1" `Quick
        test_first_run_parallel ] )

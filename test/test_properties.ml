(* Cross-cutting property tests (qcheck): random widths, random operands,
   random styles — the shrinking harness around the invariants the rest of
   the suite checks pointwise. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_core

let qtest = QCheck_alcotest.to_alcotest

let style_of_int i =
  match i mod 4 with
  | 0 -> Adder.Vbe
  | 1 -> Adder.Cdkpm
  | 2 -> Adder.Gidney
  | _ -> Adder.Draper

let print_case (s, n, x, y) =
  Printf.sprintf "style=%d n=%d x=%d y=%d" s n x y

(* width kept small enough for the dense Draper simulations *)
let gen_adder_case =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    map3
      (fun s x y -> (s, n, x, y))
      (int_bound 3)
      (int_bound ((1 lsl n) - 1))
      (int_bound ((1 lsl n) - 1)))

let arb_adder_case = QCheck.make gen_adder_case ~print:print_case

let run_fresh build inits =
  (Sim.run_builder ~rng:(Random.State.make [| 0xbeef |]) build ~inits).Sim.state

let prop_adder_universal =
  QCheck.Test.make ~name:"any style adds at any width (def 2.1)" ~count:120
    arb_adder_case (fun (s, n, x_val, y_val) ->
      let style = style_of_int s in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder.add style b ~x ~y;
      let st = run_fresh b [ (x, x_val); (y, y_val) ] in
      Sim.register_value st y = Some (x_val + y_val)
      && Sim.register_value st x = Some x_val
      && Sim.wires_zero st ~except:[ x; y ])

let prop_add_then_sub_is_identity =
  QCheck.Test.make ~name:"sub inverts add for every style" ~count:100
    arb_adder_case (fun (s, n, x_val, y_val) ->
      let style = style_of_int s in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" (n + 1) in
      Adder.add style b ~x ~y;
      Adder.sub style b ~x ~y;
      let st = run_fresh b [ (x, x_val); (y, y_val) ] in
      Sim.register_value st y = Some y_val && Sim.register_value st x = Some x_val)

let prop_modadd_universal =
  let gen =
    QCheck.Gen.(
      int_range 2 4 >>= fun n ->
      int_range 2 ((1 lsl n) - 1) >>= fun p ->
      map3
        (fun s x y -> (s, n, p, x mod p, y mod p))
        (int_bound 2)
        (int_bound (p - 1))
        (int_bound (p - 1)))
  in
  let arb =
    QCheck.make gen ~print:(fun (s, n, p, x, y) ->
        Printf.sprintf "spec=%d n=%d p=%d x=%d y=%d" s n p x y)
  in
  QCheck.Test.make ~name:"modadd for random spec/modulus/operands" ~count:80
    arb (fun (s, n, p, x_val, y_val) ->
      let spec =
        match s with
        | 0 -> Mod_add.spec_cdkpm
        | 1 -> Mod_add.spec_gidney
        | _ -> Mod_add.spec_mixed
      in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      Mod_add.modadd ~mbu:true spec b ~p ~x ~y;
      let st = run_fresh b [ (x, x_val); (y, y_val) ] in
      Sim.register_value st y = Some ((x_val + y_val) mod p)
      && Sim.wires_zero st ~except:[ x; y ])

let prop_comparator_antisymmetry =
  QCheck.Test.make ~name:"compare(x,y) XOR compare(y,x) = [x<>y]" ~count:80
    arb_adder_case (fun (s, n, x_val, y_val) ->
      let style = style_of_int s in
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" n in
      let y = Builder.fresh_register b "y" n in
      let t = Builder.fresh_register b "t" 1 in
      Adder.compare style b ~x ~y ~target:(Register.get t 0);
      Adder.compare style b ~x:y ~y:x ~target:(Register.get t 0);
      let st = run_fresh b [ (x, x_val); (y, y_val); (t, 0) ] in
      Sim.register_value st t = Some (if x_val <> y_val then 1 else 0))

(* Counting-mode ordering on random adaptive circuits. *)
let prop_count_mode_ordering =
  let arb = QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_range 5 40))
      ~print:(fun (q, l) -> Printf.sprintf "qubits=%d len=%d" q l)
  in
  QCheck.Test.make ~name:"best <= expected <= worst counts" ~count:80 arb
    (fun (num_qubits, len) ->
      let rng = Random.State.make [| num_qubits; len |] in
      let c, _ = Test_optimize.random_circuit rng ~num_qubits ~len in
      let total mode = Counts.total_gates (Circuit.counts ~mode c) in
      let best = total Counts.Best
      and expected = total (Counts.Expected 0.5)
      and worst = total Counts.Worst in
      best <= expected +. 1e-9 && expected <= worst +. 1e-9)

let prop_depth_bounds =
  let arb = QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_range 5 40))
      ~print:(fun (q, l) -> Printf.sprintf "qubits=%d len=%d" q l)
  in
  QCheck.Test.make ~name:"toffoli depth <= toffoli count <= depth bound"
    ~count:80 arb (fun (num_qubits, len) ->
      let rng = Random.State.make [| num_qubits + 17; len |] in
      let c, _ = Test_optimize.random_circuit rng ~num_qubits ~len in
      let counts = Circuit.counts ~mode:Counts.Worst c in
      let d = Depth.of_circuit ~mode:(`Expected 1.) c in
      d.Depth.toffoli <= counts.Counts.toffoli +. 1e-9
      && d.Depth.total
         <= Counts.total_gates counts +. counts.Counts.measure +. 1e-9
      && d.Depth.toffoli <= d.Depth.total +. 1e-9)

(* Unitary circuits compose with their adjoint to the identity. *)
let prop_adjoint_identity =
  let arb = QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_range 3 25))
      ~print:(fun (q, l) -> Printf.sprintf "qubits=%d len=%d" q l)
  in
  QCheck.Test.make ~name:"U then U-adjoint = identity" ~count:60 arb
    (fun (num_qubits, len) ->
      let rng = Random.State.make [| num_qubits + 3; len + 1 |] in
      let b = Builder.create () in
      let r = Builder.fresh_register b "r" num_qubits in
      let q () = Register.get r (Random.State.int rng num_qubits) in
      let emit () =
        for _ = 1 to len do
          match Random.State.int rng 5 with
          | 0 -> Builder.h b (q ())
          | 1 -> Builder.x b (q ())
          | 2 -> Builder.phase b (q ()) (Phase.theta (1 + Random.State.int rng 4))
          | 3 ->
              let a = q () in
              let rec other () = let c = q () in if c = a then other () else c in
              Builder.cnot b ~control:a ~target:(other ())
          | _ -> Builder.z b (q ())
        done
      in
      let (), body = Builder.capture b emit in
      Builder.emit b body;
      Builder.emit b (Instr.adjoint body);
      let init = Random.State.int rng (1 lsl num_qubits) in
      let st = run_fresh b [ (r, init) ] in
      Sim.register_value st r = Some init)

(* The expected executed-gate total over many shots sits between best and
   worst for the MBU modular adder. *)
let prop_executed_within_bounds =
  let arb = QCheck.make QCheck.Gen.(int_range 0 1000) ~print:string_of_int in
  QCheck.Test.make ~name:"executed gates within best/worst envelope" ~count:25
    arb (fun seed ->
      let b = Builder.create () in
      let x = Builder.fresh_register b "x" 3 in
      let y = Builder.fresh_register b "y" 3 in
      Mod_add.modadd ~mbu:true Mod_add.spec_gidney b ~p:7 ~x ~y;
      let c = Builder.to_circuit b in
      let init =
        Sim.init_registers ~num_qubits:c.Circuit.num_qubits
          [ (x, seed mod 7); (y, seed / 7 mod 7) ]
      in
      let r = Sim.run ~rng:(Random.State.make [| seed |]) c ~init in
      let executed = Counts.total_gates r.Sim.executed in
      let best = Counts.total_gates (Circuit.counts ~mode:Counts.Best c) in
      let worst = Counts.total_gates (Circuit.counts ~mode:Counts.Worst c) in
      best -. 1e-9 <= executed && executed <= worst +. 1e-9)

let suite =
  ( "properties",
    [ qtest prop_adder_universal;
      qtest prop_add_then_sub_is_identity;
      qtest prop_modadd_universal;
      qtest prop_comparator_antisymmetry;
      qtest prop_count_mode_ordering;
      qtest prop_depth_bounds;
      qtest prop_adjoint_identity;
      qtest prop_executed_within_bounds ] )

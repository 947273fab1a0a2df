type t = {
  x : float;
  z : float;
  h : float;
  phase : float;
  cnot : float;
  cz : float;
  swap : float;
  toffoli : float;
  cphase : float;
  measure : float;
}

type mode = Worst | Best | Expected of float

let zero =
  { x = 0.; z = 0.; h = 0.; phase = 0.; cnot = 0.; cz = 0.; swap = 0.;
    toffoli = 0.; cphase = 0.; measure = 0. }

let add a b =
  { x = a.x +. b.x; z = a.z +. b.z; h = a.h +. b.h; phase = a.phase +. b.phase;
    cnot = a.cnot +. b.cnot; cz = a.cz +. b.cz; swap = a.swap +. b.swap;
    toffoli = a.toffoli +. b.toffoli; cphase = a.cphase +. b.cphase;
    measure = a.measure +. b.measure }

let scale k a =
  { x = k *. a.x; z = k *. a.z; h = k *. a.h; phase = k *. a.phase;
    cnot = k *. a.cnot; cz = k *. a.cz; swap = k *. a.swap;
    toffoli = k *. a.toffoli; cphase = k *. a.cphase; measure = k *. a.measure }

let of_gate = function
  | Gate.X _ -> { zero with x = 1. }
  | Gate.Z _ -> { zero with z = 1. }
  | Gate.H _ -> { zero with h = 1. }
  | Gate.Phase _ -> { zero with phase = 1. }
  | Gate.Cnot _ -> { zero with cnot = 1. }
  | Gate.Cz _ -> { zero with cz = 1. }
  | Gate.Swap _ -> { zero with swap = 1. }
  | Gate.Toffoli _ -> { zero with toffoli = 1. }
  | Gate.Cphase _ -> { zero with cphase = 1. }

let branch_weight = function Worst -> 1. | Best -> 0. | Expected p -> p

let memo_exact mode =
  let w = branch_weight mode in
  w = 0. || fst (Float.frexp w) = 0.5

let of_instrs ~mode instrs =
  let branch_weight = branch_weight mode and exact = memo_exact mode in
  (* A shared node is counted once at weight 1 and every reference scales
     that total by its own enclosing weight — exact only when
     [memo_exact mode]; otherwise every reference walks its body. *)
  let rec count node_counts weight acc = function
    | [] -> acc
    | Instr.Gate g :: rest ->
        count node_counts weight (add acc (scale weight (of_gate g))) rest
    | Instr.Measure _ :: rest ->
        count node_counts weight
          (add acc (scale weight { zero with measure = 1. }))
          rest
    | Instr.If_bit { body; _ } :: rest ->
        let acc = count node_counts (weight *. branch_weight) acc body in
        count node_counts weight acc rest
    | Instr.Span { body; _ } :: rest ->
        let acc = count node_counts weight acc body in
        count node_counts weight acc rest
    | Instr.Call node :: rest ->
        let acc =
          if exact then
            let c = node_counts node in
            add acc (if weight = 1. then c else scale weight c)
          else count node_counts weight acc node.Instr.body
        in
        count node_counts weight acc rest
  in
  count
    (Instr.memo (fun get node -> count get 1. zero node.Instr.body))
    1. zero instrs

let cnot_cz c = c.cnot +. c.cz
let two_qubit c = c.cnot +. c.cz +. c.swap +. c.cphase
let total_gates c = c.x +. c.z +. c.h +. c.phase +. two_qubit c +. c.toffoli

let qft_gates m =
  { zero with h = float_of_int m; cphase = float_of_int (m * (m - 1) / 2) }

let qft_units ~m c =
  let rot c = c.h +. c.phase +. c.cphase in
  rot c /. rot (qft_gates m)

let approx_equal ?(eps = 1e-9) a b =
  let close x y = Float.abs (x -. y) <= eps in
  close a.x b.x && close a.z b.z && close a.h b.h && close a.phase b.phase
  && close a.cnot b.cnot && close a.cz b.cz && close a.swap b.swap
  && close a.toffoli b.toffoli && close a.cphase b.cphase
  && close a.measure b.measure

let pp fmt c =
  let field name v =
    if v <> 0. then Some (Printf.sprintf "%s=%g" name v) else None
  in
  let fields =
    List.filter_map Fun.id
      [ field "Tof" c.toffoli; field "CNOT" c.cnot; field "CZ" c.cz;
        field "X" c.x; field "Z" c.z; field "H" c.h; field "R" c.phase;
        field "C-R" c.cphase; field "SWAP" c.swap; field "M" c.measure ]
  in
  Format.fprintf fmt "{%s}" (String.concat "; " fields)

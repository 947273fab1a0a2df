type r = { total : float; toffoli : float }

type env = {
  qdepth : (int, float) Hashtbl.t;  (* total-depth front per qubit *)
  qtof : (int, float) Hashtbl.t;  (* toffoli-depth front per qubit *)
  bdepth : (int, float) Hashtbl.t;  (* per classical bit *)
  btof : (int, float) Hashtbl.t;
}

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

let of_instrs ~mode instrs =
  let (`Expected weight) = mode in
  let env =
    { qdepth = Hashtbl.create 64; qtof = Hashtbl.create 64;
      bdepth = Hashtbl.create 8; btof = Hashtbl.create 8 }
  in
  (* [w] is the product of branch probabilities enclosing the current
     instruction; a gate in such a context advances the front by [w]. *)
  let rec exec w extra_total extra_tof = function
    | [] -> ()
    | Instr.Gate g :: rest ->
        let qs = Gate.qubits g in
        let front tbl = List.fold_left (fun m q -> Float.max m (get tbl q)) 0. qs in
        let t = Float.max (front env.qdepth) extra_total +. w in
        let tof_step = if Gate.is_toffoli g then w else 0. in
        let tt = Float.max (front env.qtof) extra_tof +. tof_step in
        List.iter (fun q -> Hashtbl.replace env.qdepth q t) qs;
        List.iter (fun q -> Hashtbl.replace env.qtof q tt) qs;
        exec w extra_total extra_tof rest
    | Instr.Measure { qubit; bit; _ } :: rest ->
        let t = Float.max (get env.qdepth qubit) extra_total +. w in
        let tt = Float.max (get env.qtof qubit) extra_tof in
        Hashtbl.replace env.qdepth qubit t;
        Hashtbl.replace env.bdepth bit t;
        Hashtbl.replace env.qtof qubit tt;
        Hashtbl.replace env.btof bit tt;
        exec w extra_total extra_tof rest
    | Instr.If_bit { bit; body; _ } :: rest ->
        exec (w *. weight)
          (Float.max extra_total (get env.bdepth bit))
          (Float.max extra_tof (get env.btof bit))
          body;
        exec w extra_total extra_tof rest
    | Instr.Span { body; _ } :: rest ->
        exec w extra_total extra_tof body;
        exec w extra_total extra_tof rest
    | Instr.Call { body; _ } :: rest ->
        (* Depth is not compositional (the per-wire fronts couple a block to
           its context), so references are walked exactly, like spans. *)
        exec w extra_total extra_tof body;
        exec w extra_total extra_tof rest
  in
  exec 1. 0. 0. instrs;
  let max_of tbl = Hashtbl.fold (fun _ v m -> Float.max v m) tbl 0. in
  { total = Float.max (max_of env.qdepth) (max_of env.bdepth);
    toffoli = Float.max (max_of env.qtof) (max_of env.btof) }

let of_circuit ~mode (c : Circuit.t) = of_instrs ~mode c.instrs

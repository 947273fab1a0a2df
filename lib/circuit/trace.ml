type entry = {
  label : string;
  path : string list;
  start : float;
  dur : float;
  flat : Counts.t;
  cum : Counts.t;
  peak_ancillas : int;
  total_depth : float;
  toffoli_depth : float;
  calls : int;
  children : entry list;
}

let root_label = "(root)"

let cum_of flat children =
  List.fold_left (fun acc e -> Counts.add acc e.cum) flat children

(* Memo of one shared node's profile, computed once in a neutral frame
   (clock 0, weight 1, empty path). Every reference rebases it into its own
   context: starts shift by the reference's clock, counts and durations
   scale by the enclosing branch weight, paths get the reference's prefix.
   The rebased entries are bit-identical to an inline walk when
   [Counts.memo_exact mode]; other modes inline-walk all references. *)
type node_memo = { m_flat : Counts.t; m_dur : float; m_children : entry list }

type clock = { mutable c : float }

let profile ?(mode = Counts.Expected 0.5) ?(span_depth = true) instrs =
  let branch_weight = Counts.branch_weight mode in
  let depth_of body =
    (* Per-span isolated ASAP depth is the one metric that cannot be
       memoized across contexts cheaply (ancestor spans re-walk their whole
       expansion); [~span_depth:false] skips it for cryptographic-scale
       sweeps where only counts/attribution matter. *)
    if span_depth then Depth.of_instrs ~mode:(`Expected branch_weight) body
    else { Depth.total = 0.; toffoli = 0. }
  in
  (* [clock] is the running weighted instruction count — the span timeline's
     time axis; a gate or measurement under branch probability [w] advances
     it by [w]. *)
  (* an all-float record keeps the clock unboxed: updating a [float ref]
     allocates a fresh box per gate, which dominates large walks *)
  let clock = { c = 0. } in
  let use_memo = Counts.memo_exact mode in
  (* Number of syntactic Call sites per node in the deduplicated walk: each
     distinct body is visited once, and every site bumps its node's
     counter, so the prepass is O(dag). A node referenced from a single
     site gains nothing from the neutral-frame memo — memoize-then-rebase
     would materialize its span entries twice — so the walk below inlines
     those and memoizes only nodes with two or more sites. *)
  let rec count_sites sites = function
    | Instr.Gate _ | Instr.Measure _ -> ()
    | Instr.If_bit { body; _ } | Instr.Span { body; _ } ->
        List.iter (count_sites sites) body
    | Instr.Call node -> incr (sites node)
  in
  let sites =
    Instr.memo (fun sites node ->
        List.iter (count_sites sites) node.Instr.body;
        ref 0)
  in
  if use_memo then List.iter (count_sites sites) instrs;
  let rec rebase ~w ~at ~path e =
    if w = 1. then
      { e with
        path = path @ e.path;
        start = at +. e.start;
        children = List.map (rebase ~w ~at ~path) e.children }
    else
      { e with
        path = path @ e.path;
        start = at +. (w *. e.start);
        dur = w *. e.dur;
        flat = Counts.scale w e.flat;
        cum = Counts.scale w e.cum;
        children = List.map (rebase ~w ~at ~path) e.children }
  in
  (* returns (flat counts, children in emission order) for one block *)
  let rec walk memo_of path w instrs =
    let flat, rev_children =
      List.fold_left
        (fun (flat, kids) i ->
          match i with
          | Instr.Gate g ->
              clock.c <- clock.c +. w;
              (Counts.add flat (Counts.scale w (Counts.of_gate g)), kids)
          | Instr.Measure _ ->
              clock.c <- clock.c +. w;
              (Counts.add flat (Counts.scale w { Counts.zero with measure = 1. }),
               kids)
          | Instr.If_bit { body; _ } ->
              (* a conditional block is not a span: its contents attribute to
                 the enclosing span, discounted by the branch probability *)
              let bflat, bkids = walk memo_of path (w *. branch_weight) body in
              (Counts.add flat bflat, List.rev_append bkids kids)
          | Instr.Span { label; peak_ancillas; body } ->
              let start = clock.c in
              let cpath = path @ [ label ] in
              let bflat, bkids = walk memo_of cpath w body in
              let d = depth_of body in
              let e =
                { label; path = cpath; start; dur = clock.c -. start;
                  flat = bflat; cum = cum_of bflat bkids; peak_ancillas;
                  total_depth = d.Depth.total; toffoli_depth = d.Depth.toffoli;
                  calls = 1; children = bkids }
              in
              (flat, e :: kids)
          | Instr.Call node ->
              if use_memo && !(sites node) > 1 then begin
                let m = memo_of node in
                let at = clock.c in
                clock.c <- at +. (w *. m.m_dur);
                let bkids = List.map (rebase ~w ~at ~path) m.m_children in
                let mflat =
                  if w = 1. then m.m_flat else Counts.scale w m.m_flat
                in
                (Counts.add flat mflat, List.rev_append bkids kids)
              end
              else
                let bflat, bkids = walk memo_of path w node.Instr.body in
                (Counts.add flat bflat, List.rev_append bkids kids))
        (Counts.zero, []) instrs
    in
    (flat, List.rev rev_children)
  in
  let memo_of =
    Instr.memo (fun memo_of node ->
        let saved = clock.c in
        clock.c <- 0.;
        let flat, children = walk memo_of [] 1. node.Instr.body in
        let m = { m_flat = flat; m_dur = clock.c; m_children = children } in
        clock.c <- saved;
        m)
  in
  let flat, children = walk memo_of [] 1. instrs in
  let d = depth_of instrs in
  let peak =
    List.fold_left (fun m e -> max m e.peak_ancillas) 0 children
  in
  { label = root_label; path = []; start = 0.; dur = clock.c; flat;
    cum = cum_of flat children; peak_ancillas = peak;
    total_depth = d.Depth.total; toffoli_depth = d.Depth.toffoli; calls = 1;
    children }

let of_circuit ?mode ?span_depth (c : Circuit.t) =
  profile ?mode ?span_depth c.Circuit.instrs

let rec flatten e = e :: List.concat_map flatten e.children

let find root label =
  List.find_opt (fun e -> e.label = label) (flatten root)

let sum_flat root =
  List.fold_left (fun acc e -> Counts.add acc e.flat) Counts.zero (flatten root)

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Collapse runs of same-labelled siblings (e.g. the n [and.compute] leaves
   of a Gidney adder) into one row: counts and durations sum, ancilla peaks
   max, children merge recursively. *)
let rec merge_siblings entries =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.label with
      | None ->
          Hashtbl.replace tbl e.label e;
          order := e.label :: !order
      | Some m ->
          Hashtbl.replace tbl e.label
            { m with
              dur = m.dur +. e.dur;
              flat = Counts.add m.flat e.flat;
              cum = Counts.add m.cum e.cum;
              peak_ancillas = max m.peak_ancillas e.peak_ancillas;
              total_depth = m.total_depth +. e.total_depth;
              toffoli_depth = m.toffoli_depth +. e.toffoli_depth;
              calls = m.calls + e.calls;
              children = m.children @ e.children })
    entries;
  List.rev_map
    (fun label ->
      let m = Hashtbl.find tbl label in
      { m with children = merge_siblings m.children })
    !order

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

let render ?(merge = true) ?max_depth root =
  let root = if merge then { root with children = merge_siblings root.children } else root in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %5s %9s %9s %7s %7s %5s %9s %9s\n" "span" "calls"
       "flat Tof" "cum Tof" "CNOT+CZ" "X" "anc" "Tof-depth" "gates");
  let rec go prefix child_prefix e =
    let name = prefix ^ e.label in
    let name =
      if String.length name > 44 then String.sub name 0 41 ^ "..." else name
    in
    Buffer.add_string buf
      (Printf.sprintf "%-44s %5d %9s %9s %7s %7s %5d %9s %9s\n" name e.calls
         (fnum e.flat.Counts.toffoli)
         (fnum e.cum.Counts.toffoli)
         (fnum (Counts.cnot_cz e.cum))
         (fnum e.cum.Counts.x)
         e.peak_ancillas
         (fnum e.toffoli_depth)
         (fnum (Counts.total_gates e.cum +. e.cum.Counts.measure)));
    let deep =
      match max_depth with
      | Some d -> List.length e.path >= d
      | None -> false
    in
    if not deep then begin
      let rec kids = function
        | [] -> ()
        | [ last ] -> go (child_prefix ^ "`- ") (child_prefix ^ "   ") last
        | k :: rest ->
            go (child_prefix ^ "|- ") (child_prefix ^ "|  ") k;
            kids rest
      in
      kids e.children
    end
  in
  go "" "" root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON *)

(* One complete ("ph":"X") event per span, on a weighted-gate-count time
   axis; loads directly into chrome://tracing / Perfetto / speedscope.
   [counters] (e.g. [Telemetry.counters_alist ()]) are appended as counter
   ("ph":"C") events pinned to the root span's end, so runtime metrics
   overlay the span timeline in the same viewer. *)
let to_json ?(counters = []) root =
  let open Mbu_telemetry.Json in
  let event ~cat ~ph ~ts name fields =
    Obj
      ([ ("name", Str name); ("cat", Str cat); ("ph", Str ph); ("pid", int 1);
         ("tid", int 1); ("ts", Num ts) ]
      @ fields)
  in
  let span e =
    event ~cat:"span" ~ph:"X" ~ts:e.start e.label
      [ ("dur", Num e.dur);
        ("args",
         Obj
           [ ("path", Str (String.concat "/" e.path));
             ("toffoli", Num e.cum.Counts.toffoli);
             ("cnot_cz", Num (Counts.cnot_cz e.cum)); ("x", Num e.cum.Counts.x);
             ("measure", Num e.cum.Counts.measure);
             ("flat_toffoli", Num e.flat.Counts.toffoli);
             ("flat_cnot_cz", Num (Counts.cnot_cz e.flat));
             ("peak_ancillas", int e.peak_ancillas);
             ("toffoli_depth", Num e.toffoli_depth);
             ("total_depth", Num e.total_depth) ]) ]
  in
  let counter (name, v) =
    event ~cat:"telemetry" ~ph:"C" ~ts:(root.start +. root.dur) name
      [ ("args", Obj [ ("value", Num v) ]) ]
  in
  to_string
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ("traceEvents",
          Arr (List.map span (flatten root) @ List.map counter counters)) ])

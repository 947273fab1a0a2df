(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, op): [parent] is the enclosing
   span, [op] the operation it belongs to (one circuit, one row batch, one
   shot, one campaign) so that every span of one operation shares an id.
   Spans are recorded only while [enabled] is set; otherwise [with_span]
   is a plain call. They stay in memory until [write] at exit. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root (one pass) *)
  root : int;
  op : int;
}

let enabled = ref false
let origin = Util.now ()
let next_id = ref 0
let next_op = ref 0
let stack : (int * int * int) list ref = ref [] (* id, root, op *)
let finished : span list ref = ref []

let new_op () =
  let o = !next_op in
  incr next_op;
  o

let with_span ?op name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, root, parent_op =
      match !stack with (p, r, o) :: _ -> (p, r, o) | [] -> (-1, id, -1)
    in
    let op = match op with Some o -> o | None -> parent_op in
    stack := (id, root, op) :: !stack;
    let start = Util.now () in
    let finish () =
      let stop = Util.now () in
      stack := List.tl !stack;
      finished := { id; name; start; stop; parent; root; op } :: !finished
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let spans () =
  let a = Array.of_list !finished in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

(* Self time: duration minus the durations of direct children (children
   of one span never overlap: calls are sequential). *)
let self_times spans =
  let self = Array.map (fun s -> s.stop -. s.start) spans in
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        match Hashtbl.find_opt index s.parent with
        | Some i -> self.(i) <- self.(i) -. (s.stop -. s.start)
        | None -> ())
    spans;
  self

type summary = {
  roots : span array;  (** the root spans named "pass", in order *)
  per_root : (int * string, float) Hashtbl.t;  (** (root, name) -> self s *)
  per_name : (string, Util.Samples.t) Hashtbl.t;  (** name -> self s each *)
}

let summarize () =
  let spans = spans () in
  let self = self_times spans in
  let per_root = Hashtbl.create 64 and per_name = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let key = (s.root, s.name) in
      Hashtbl.replace per_root key
        (self.(i) +. Option.value ~default:0. (Hashtbl.find_opt per_root key));
      Util.Samples.add_keyed per_name s.name self.(i))
    spans;
  { roots =
      Array.of_list (List.filter (fun s -> s.parent < 0 && s.name = "pass") (Array.to_list spans));
    per_root; per_name }

(* Per-pass self time of the spans called [name]: one value per root. *)
let per_pass sm name =
  Array.map
    (fun r -> Option.value ~default:0. (Hashtbl.find_opt sm.per_root (r.id, name)))
    sm.roots

(* Self times of every span called [name]. *)
let samples sm name =
  match Hashtbl.find_opt sm.per_name name with
  | Some b -> Util.Samples.to_array b
  | None -> [||]

let write path ~workload ~seed =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"time_unit\": \"us\",\n\
    \ \"columns\": [\"name\", \"start\", \"end\", \"parent\", \"op\"],\n\
    \ \"spans\": [" workload seed;
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n  [%S, %.3f, %.3f, %d, %d]"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6)
        s.parent s.op)
    (spans ());
  output_string oc "\n]}\n";
  close_out oc

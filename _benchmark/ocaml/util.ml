(* Clock, statistics, seeded input streams and the output-check tally
   shared by every workload. *)

(* Seconds on the monotonic clock. *)
external now : unit -> (float[@unboxed])
  = "bench_monotonic" "bench_monotonic_unboxed"
[@@noalloc]

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default), on a
   sorted copy. *)
let quantile q xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0. xs

(* Growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
  let clear t = t.n <- 0

  (* Add [x] to the buffer stored under [key], creating it if needed. *)
  let add_keyed tbl key x =
    match Hashtbl.find_opt tbl key with
    | Some t -> add t x
    | None ->
        let t = create () in
        add t x;
        Hashtbl.replace tbl key t
end

(* Every generated input is drawn from a stream keyed by the workload seed,
   a purpose label and an index (pass, row, shot), so the same seed gives
   the same inputs whatever ran before and however many passes fit in the
   time budget. *)
let rng ~seed purpose idx =
  Random.State.make [| seed; Hashtbl.hash purpose; idx |]

(* Odd modulus with its top bit set, so it is exactly [n] bits wide. *)
let odd_modulus rng n =
  (1 lsl (n - 1)) lor 1 lor (Random.State.int rng (1 lsl (n - 1)) land lnot 1)

(* Allocation of the calling domain, in words. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Output checks. Each check is one attempted operation; a failed one
   counts towards the error rate and its first message goes to stderr. *)
module Checks = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }

  let check t ok msg =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      if t.failed < 5 then prerr_endline ("check failed: " ^ msg ());
      t.failed <- t.failed + 1
    end
end

type ctx = {
  seed : int;
  seconds : float;
  jobs : int;
  trace : bool;
  corrupt : bool;
      (** perturb every reference value, so that every check must fail —
          the benchmark's own test of its checks *)
  checks : Checks.t;
}

(* A reference value as the checks see it: shifted by one under [corrupt]. *)
let reference ctx v = if ctx.corrupt then v + 1 else v
let reference_f ctx v = if ctx.corrupt then v +. 1. else v

(* Run passes [first], [first + 1], ... until [budget] seconds have gone,
   stopping early when another pass of the median length would overrun;
   at least [min_passes] run. [pass i] times itself and returns its
   duration. *)
let run_passes ~first ~budget ~min_passes pass =
  let start = now () in
  let durations = Samples.create () in
  let rec go i =
    let elapsed = now () -. start in
    let typical =
      if Samples.length durations = 0 then 0.
      else median (Samples.to_array durations)
    in
    if i - first < min_passes || elapsed +. typical <= budget then begin
      Samples.add durations (pass i);
      go (i + 1)
    end
    else i
  in
  let next = go first in
  (Samples.to_array durations, next)

(** Gate counting, with the paper's three accounting modes.

    The MBU lemma (lemma 4.1) makes gate costs random variables: each
    measurement-conditioned block executes with probability 1/2 when the
    measured qubit came from an X-basis-style measurement of a balanced
    garbage bit. The paper reports costs "in expectation" over that Bernoulli
    distribution; this module also offers worst-case (every conditional
    taken) and best-case (none taken) accounting. Counts are floats because
    expected counts are fractional (e.g. 3.5 n Toffoli for theorem 4.4). *)

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

type mode =
  | Worst  (** every conditional block executes *)
  | Best  (** no conditional block executes *)
  | Expected of float
      (** each conditional block executes with this probability,
          independently; [Expected 0.5] is the paper's cost model *)

val branch_weight : mode -> float
(** Probability that one conditional block executes: [1.] for [Worst], [0.]
    for [Best], [p] for [Expected p]. The one place a mode becomes a
    weight; {!Depth} takes it as [`Expected (branch_weight mode)]. *)

val memo_exact : mode -> bool
(** Whether a shared block may be evaluated once at weight 1 and scaled by
    each reference's weight with a result bit-identical to walking every
    reference inline. True when the branch weight is [0.] or a power of two
    ([Worst], [Best] and the paper's [Expected 0.5]): then every
    intermediate sum of integer per-gate contributions is a dyadic rational
    far below 2^53, so float arithmetic is exact in any association. A
    non-dyadic weight (e.g. [Expected 0.3]) rounds in every accumulator,
    making [w *. k] differ from [k] additions of [w] in the last ulp, so
    passes walk every reference instead. {!of_instrs} and [Trace.profile]
    memoize shared blocks under this rule. *)

val zero : t
val add : t -> t -> t
val scale : float -> t -> t
val of_gate : Gate.t -> t

val of_instrs : mode:mode -> Instr.t list -> t
(** Count the gates of a program. Measurements count in [measure] only; the
    outcome-conditioned reset X of a [Measure ~reset:true] is not counted as
    a gate. *)

val cnot_cz : t -> float
(** The paper's combined "CNOT,CZ" column of table 1. *)

val two_qubit : t -> float
(** CNOT + CZ + SWAP + controlled-phase. *)

val total_gates : t -> float

val qft_gates : int -> t
(** [qft_gates m]: gate count of a textbook [QFT_m] — [m] Hadamards and
    [m (m-1) / 2] controlled rotations (remark 1.1). Used to express
    Draper-adder costs in "QFT units" as table 1 does. *)

val qft_units : m:int -> t -> float
(** [(h + phase + cphase)] of the count, normalized by the same quantity for
    one [QFT_m]. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

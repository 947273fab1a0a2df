(** Sparse state vectors with a classical fast track.

    A state over [num_qubits] wires (at most 62) is a finite map from basis
    indices to complex amplitudes; basis index bit [i] is the value of wire
    [i]. Sparsity is what makes simulating the ripple-carry circuits cheap:
    a computational-basis input stays a single basis state under X / CNOT /
    Toffoli, and the measurement-based blocks only ever put one ancilla at a
    time into superposition.

    Internally a state rides one of two tracks. The {e classical} track
    stores a product state: the basis value of most wires as a plain [int],
    plus the wires held in |+> or |-> as two bit masks and a global-phase
    amplitude. Permutation gates on basis wires are O(1) bit twiddles; H
    moves a wire between the basis and the X basis; X / CNOT / Toffoli
    targeting an X-basis wire, and Z or CZ on one, only flip a sign. None
    of these allocate, which covers the X-basis measurement of the MBU
    lemma and of Gidney's logical-AND erasure. Any other gate touching an
    X-basis wire promotes to the {e sparse} track — a hash table mutated in
    place for permutation and diagonal gates, double-buffered only for H —
    and the state demotes back to classical as soon as the support
    collapses to one term. Dense states (QFT circuits) are still exact,
    just limited to small wire counts.

    The [*_inplace] operations mutate the state; the same-named pure
    functions copy first and are safe to use on shared states. *)

open Mbu_circuit

type t

val num_qubits : t -> int

val basis : num_qubits:int -> int -> t
(** [basis ~num_qubits idx]: the computational basis state |idx>. *)

val of_alist : num_qubits:int -> (int * Complex.t) list -> t
(** Not normalized automatically; raises [Invalid_argument] on repeated
    indices or indices out of range. *)

val to_alist : t -> (int * Complex.t) list
(** Entries with non-negligible amplitude, sorted by basis index. *)

val num_terms : t -> int

val support_size : t -> int
(** Number of amplitude entries the state stands for — 2{^k} on the
    classical track with [k] wires in the X basis, the raw hash-table size
    on the sparse track (negligible amplitudes included, unlike
    {!num_terms}). O(k); this is the memory-cost figure the
    [Sim.run ?max_terms] budget compares against. *)

val norm : t -> float
val normalize : t -> t

val copy : t -> t
(** Independent deep copy; in-place operations on the copy do not affect
    the original. *)

val is_classical : t -> bool
(** True while the state is on the classical (product) track: every wire
    either a basis value or |+> / |->, no amplitude table. *)

val apply_gate : t -> Gate.t -> t
val apply_gate_inplace : t -> Gate.t -> unit

(** {2 In-place gate kernels}

    One per gate kind, taking the wires in {!Gate.t} field order, for
    callers that hold decoded operands ({!apply_gate_inplace} dispatches
    to them). *)

val x : t -> Gate.qubit -> unit
val z : t -> Gate.qubit -> unit
val h : t -> Gate.qubit -> unit
val phase : t -> Gate.qubit -> Phase.t -> unit
val cnot : t -> Gate.qubit -> Gate.qubit -> unit
val cz : t -> Gate.qubit -> Gate.qubit -> unit
val swap : t -> Gate.qubit -> Gate.qubit -> unit
val toffoli : t -> Gate.qubit -> Gate.qubit -> Gate.qubit -> unit
val cphase : t -> Gate.qubit -> Gate.qubit -> Phase.t -> unit

val prob_bit_one : t -> int -> float
(** Probability that measuring the given wire yields 1. *)

val project : t -> qubit:int -> value:bool -> t
(** Project onto the subspace where [qubit] = [value] and renormalize.
    Raises [Invalid_argument] if the outcome has zero probability. *)

val project_inplace : t -> qubit:int -> value:bool -> unit

val set_bit_zero : t -> qubit:int -> t
(** Clear the given wire in every basis index (used by measure-and-reset
    after projecting onto 1). The map is linear but not bijective: basis
    indices that collide once the wire is cleared have their amplitudes
    {e accumulated}. *)

val set_bit_zero_inplace : t -> qubit:int -> unit

val fidelity : t -> t -> float
(** |<a|b>| — 1 for states equal up to global phase. *)

val classical_value : t -> int option
(** [Some idx] when the state is a single basis vector (up to global phase),
    [None] otherwise. *)

val bit_value : t -> int -> bool option
(** The definite value of a wire across the whole support, if any. *)

(** The seed simulator's pure rebuild-per-gate algorithms, kept verbatim
    (modulo the [set_bit_zero] collision fix) as the oracle for the
    backend-equivalence property tests and the "before" baseline of the
    simulator benchmark. Results are always on the sparse track and never
    demote. *)
module Reference : sig
  val apply_gate : t -> Gate.t -> t
  val project : t -> qubit:int -> value:bool -> t
  val set_bit_zero : t -> qubit:int -> t
end

val pp : Format.formatter -> t -> unit

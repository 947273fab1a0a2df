(** Clifford+T decompositions and T-counting.

    The paper counts Toffoli gates; fault-tolerant estimates count T gates.
    This module provides the two decompositions behind the Tof/T accounting:

    - the textbook 7-T Toffoli;
    - figure 10's temporary logical-AND: when the target is a fresh |0>
      qubit, 4 T gates suffice (the phase defect [e^{-i pi ab / 2}] left by
      the shorter phase polynomial is repaired by one S on the freshly
      computed AND bit). Its uncomputation (figure 11) costs no T at all —
      this is where "halving the cost of quantum addition" comes from: a
      CDKPM adder costs [14n] T, a Gidney adder [4n].

    [circuit] rewrites every Toffoli of a circuit into Clifford+T.
    [t_count] counts T gates ([R(theta_3)] rotations and their adjoints)
    under the usual expectation accounting. *)

open Mbu_circuit

val toffoli_7t : c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit -> Gate.t list
(** Exactly the Toffoli unitary. *)

val and_4t : c1:Gate.qubit -> c2:Gate.qubit -> target:Gate.qubit -> Gate.t list
(** Computes [target <- c1 AND c2]; requires [target] = |0>. *)

val circuit : ?fresh_target_and:bool -> Circuit.t -> Circuit.t
(** Replace every Toffoli with {!toffoli_7t}. With [fresh_target_and] the
    rewrite is invalid in general and is exposed only for cost studies where
    every Toffoli is known to be a logical-AND onto |0> (default false). *)

val t_count : mode:Counts.mode -> Instr.t list -> float
(** Number of [T]/[T!] gates (single-qubit rotations by [±pi/4]), with
    conditional blocks weighted by [Counts.branch_weight mode] as in
    {!Counts.of_instrs}. *)

(** Circuit depth by ASAP (as-soon-as-possible) scheduling.

    Depth is computed on the dependency structure: each gate is scheduled one
    layer after the latest layer touching any of its qubits. Toffoli depth
    counts only Toffoli layers (all other gates propagate availability
    without using a layer), the standard cost model for fault-tolerant
    surface-code estimates where Toffoli/T gates dominate.

    Measurements occupy a layer on their qubit and define the classical bit;
    gates inside a conditional block additionally depend on that bit.

    The accounting mode [`Expected p] weights the layers contributed by a
    conditional body by the probability that it runs (a linear-in-expectation
    approximation — exact expected depth of an adaptive circuit is obtained
    by Monte-Carlo over simulator runs instead, see [Sim]). Worst-case depth
    (every conditional body runs) is [`Expected 1.], best-case depth (none
    runs) is [`Expected 0.]; a caller holding a {!Counts.mode} passes
    [`Expected (Counts.branch_weight mode)]. *)

type r = { total : float; toffoli : float }

val of_instrs : mode:[ `Expected of float ] -> Instr.t list -> r
val of_circuit : mode:[ `Expected of float ] -> Circuit.t -> r

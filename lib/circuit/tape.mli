(** A circuit lowered once into a flat execution tape.

    The simulator does not walk the instruction DAG. It runs a tape: one
    packed [int] per executed instruction, with every [Call] and [Span]
    body inlined and every [If_bit] turned into one op that jumps forward
    over its body when the guard fails. Spans occupy no op, so the tape
    index of an instruction is exactly its {!Fault} static position.

    Packing, low bits first:
    - gates: kind (4 bits), then up to three 6-bit wires; [Phase] and
      [Cphase] add an index into the tape's phase side table;
    - [Measure]: kind, qubit, the reset flag, then the classical bit;
    - [If_bit]: kind, the guard value, a 24-bit classical bit, then the
      length of the body to jump over.

    A tape is immutable once compiled and safe to share between domains.
    Span structure lives beside the ops in an event table that only hooked
    or budgeted runs read ({!span_events}). *)

type t

type kind = X | Z | H | Phase | Cnot | Cz | Swap | Toffoli | Cphase | Measure | If_bit

val compile : Instr.t list -> t
(** Lower a program. Raises [Invalid_argument] if a wire index exceeds 63
    or a conditional's classical bit exceeds 2{^24} - 1. *)

val length : t -> int
val op : t -> int -> int
(** [op t i] is the packed op at tape index [i]. *)

val kind : int -> kind
val code : kind -> int
(** [code k] is the op's kind number, 0 .. 10 in declaration order; the
    nine gate kinds come first, as in {!Counts.t}. *)

val q0 : int -> Gate.qubit
val q1 : int -> Gate.qubit
val q2 : int -> Gate.qubit
(** Gate wires in {!Gate.t} field order; [q0] is also a [Measure]'s
    qubit. *)

val phase : t -> int -> Phase.t
(** The angle of a [Phase] or [Cphase] op. *)

val gate : t -> int -> Gate.t
(** Rebuild the gate of a gate op (allocates; for hooks and the reference
    engine). *)

val measure_bit : int -> int
val measure_reset : int -> bool
val if_bit : int -> int
val if_value : int -> bool

val if_skip : int -> int
(** Number of ops in the conditional body: an untaken [If_bit] at [i]
    continues at [i + 1 + if_skip op]. *)

(** A span boundary, in program order. [at] is the tape index of the op the
    event precedes ({!length} for events after the last op). [guard] is the
    tape index of the innermost [If_bit] whose body holds the span, or
    [-1]; an untaken conditional at [i] skips exactly the events whose
    guard lies in [\[i, i + 1 + if_skip op)]. [rpath] is the span's label
    path innermost first, so nested spans share their parent's tail. *)
type span_event = { at : int; guard : int; enter : bool; rpath : string list }

val span_events : t -> span_event array
(** Built on first request and kept with the tape. *)

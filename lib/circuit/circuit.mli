(** A complete circuit: an instruction program plus its wire/bit widths. *)

type t = private {
  num_qubits : int;
  num_bits : int;
  instrs : Instr.t list;
  tape : Tape.t option Atomic.t;
      (** the compiled {!Tape.t}, filled by the first {!tape} request *)
}

val make :
  ?validate:bool -> ?num_qubits:int -> ?num_bits:int -> Instr.t list -> t
(** Widths default to (1 + the largest index used). Raises
    [Invalid_argument] if an explicit width is too small or a gate is
    malformed (see {!Gate.validate}). [validate] defaults to [true]; pass
    [~validate:false] on the trusted path where every gate was already
    checked on emission ({!Builder.gate} does), skipping the per-gate
    re-validation while still computing the width invariant in one fused
    pass. *)

val adjoint : t -> t
(** Raises [Invalid_argument] on circuits containing measurements
    (remark 2.23). *)

val counts : ?mode:Counts.mode -> t -> Counts.t
(** Defaults to [Worst]. *)

val num_gates : t -> int
val is_unitary : t -> bool

val append : t -> t -> t
(** Sequential composition on a shared wire numbering. *)

val tape : t -> Tape.t
(** The circuit's execution tape, compiled on the first request and cached
    on the circuit; safe to call from several domains at once. *)

val pp : Format.formatter -> t -> unit

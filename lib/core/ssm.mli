(** WP4 extension: synchronous state machine on the nano-fabric.

    The paper's end goal is an SSM — "representation of a computer" —
    built from crossbar logic and memory.  This module assembles one:
    next-state and output logic are synthesized as switching lattices
    (via {!Synth}) and a register holds the state; each clock edge of
    {!run} is evaluated entirely through lattice connectivity.

    Inputs are variables [0 .. n_inputs-1]; state bits are variables
    [n_inputs .. n_inputs + state_bits - 1] of every logic function. *)

type t

val make :
  n_inputs:int ->
  state_bits:int ->
  next_state:Nxc_logic.Boolfunc.t array ->
  outputs:Nxc_logic.Boolfunc.t array ->
  t
(** Each function must have arity [n_inputs + state_bits].
    [next_state] has one function per state bit.
    Test-only: test/test_core.ml — tests check it directly. *)

val logic_area : t -> int
(** Total lattice sites of all next-state and output logic. *)

val run : t -> init:int -> int list -> (int * int) list
(** Trace of [(state_after, output_after)] per input, threading state. *)

(** {2 Ready-made machines} *)

val counter : bits:int -> t
(** Mod-2{^bits} up-counter with an enable input; output = state. *)

val sequence_detector : pattern:bool list -> t
(** Mealy-style detector (output bit on the step completing the
    pattern) over a serial input, with overlap. *)

val equivalent_to :
  t -> reference:(state:int -> input:int -> int * int) -> bool
(** Exhaustive equivalence of one clock edge against a functional
    reference over all states and inputs.
    Test-only: bench/main.ml and test/test_core.ml — tests and the bench
    check machines with it. *)

(** WP4 capstone: a programmable accumulator machine on the nano-fabric.

    The project's end goal is "the design and construction of an
    emerging nanocomputer" (Section II).  This module assembles one
    from the pieces built elsewhere in the repository:

    - data and program storage are {!Memory} crossbar arrays (with
      spare-row repair when a defect map is supplied);
    - the ALU is the lattice ripple adder of {!Arith};
    - the zero-flag and program-counter increment are switching
      lattices evaluated by connectivity;
    - control is a Moore-style step function in the spirit of {!Ssm}.

    The instruction set is a classic 8-instruction accumulator ISA.
    Programs genuinely execute through lattice evaluations — no host
    arithmetic computes an architectural result. *)

type instruction =
  | Ldi of int  (** acc <- immediate *)
  | Lda of int  (** acc <- mem[addr] *)
  | Sta of int  (** mem[addr] <- acc *)
  | Add of int  (** acc <- acc + mem[addr] (lattice adder, carry dropped) *)
  | Sub of int  (** acc <- acc - mem[addr] (two's complement, same adder) *)
  | Jmp of int  (** pc <- addr *)
  | Jnz of int  (** pc <- addr when acc <> 0 (lattice zero-flag) *)
  | Hlt

type t

val create :
  word_bits:int ->
  data_words:int ->
  program:instruction list ->
  unit ->
  t
(** [word_bits] in [1..8]; the program may not exceed 256 instructions.
    The data memory is a perfect crossbar with two spare rows. *)

val lattice_sites : t -> int
(** Total lattice area of the machine's combinational logic (ALU,
    zero-flag, PC incrementer). *)

type state = {
  pc : int;
  acc : int;
  halted : bool;
  steps : int;
}

val peek : t -> int -> int
(** Data-memory word. *)

val run : t -> state
(** Run to halt, or for at most 10_000 steps. *)

val assemble_sum_1_to_n : n:int -> instruction list
(** Demo program: sums 1..n by a JNZ loop into address 0. *)

val assemble_fibonacci : steps:int -> instruction list
(** Demo program: iterates Fibonacci, leaving F(steps) in address 0. *)

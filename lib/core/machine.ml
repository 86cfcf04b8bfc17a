module R = Nxc_reliability
module Lt = Nxc_lattice
module L = Nxc_logic

type instruction =
  | Ldi of int
  | Lda of int
  | Sta of int
  | Add of int
  | Sub of int
  | Jmp of int
  | Jnz of int
  | Hlt

type state = { pc : int; acc : int; halted : bool; steps : int }

type t = {
  bits : int;
  mask : int;
  program_length : int;
  imem : Memory.t;  (* 11-bit words: 3-bit opcode + 8-bit operand *)
  dmem : Memory.t;
  alu : Arith.adder;
  pc_alu : Arith.adder;
  nonzero : Lt.Lattice.t;
  mutable st : state;
}

let opcode = function
  | Ldi _ -> 0
  | Lda _ -> 1
  | Sta _ -> 2
  | Add _ -> 3
  | Sub _ -> 4
  | Jmp _ -> 5
  | Jnz _ -> 6
  | Hlt -> 7

let operand = function
  | Ldi x | Lda x | Sta x | Add x | Sub x | Jmp x | Jnz x -> x
  | Hlt -> 0

let encode instr = opcode instr lor (operand instr lsl 3)

let to_bits width value = Array.init width (fun i -> (value lsr i) land 1 = 1)

let of_bits bits =
  let v = ref 0 in
  Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) bits;
  !v

let create ~word_bits ~data_words ~program () =
  if word_bits < 1 || word_bits > 8 then invalid_arg "Machine.create: word_bits";
  if List.length program > 256 then invalid_arg "Machine.create: program too long";
  if program = [] then invalid_arg "Machine.create: empty program";
  List.iter
    (fun i ->
      let a = operand i in
      if a < 0 || a > 255 then invalid_arg "Machine.create: operand range")
    program;
  let imem =
    Memory.create ~words:(List.length program) ~width:11 ~spares:0 ()
  in
  List.iteri
    (fun addr instr -> Memory.write imem ~addr (to_bits 11 (encode instr)))
    program;
  let dmem = Memory.create ~words:data_words ~width:word_bits ~spares:2 () in
  (* zero flag: OR of the accumulator bits as a lattice *)
  let any_bit =
    L.Boolfunc.of_fun_int ~name:"nonzero" word_bits (fun m -> m <> 0)
  in
  { bits = word_bits;
    mask = (1 lsl word_bits) - 1;
    program_length = List.length program;
    imem;
    dmem;
    alu = Arith.ripple_adder word_bits;
    pc_alu = Arith.ripple_adder 8;
    nonzero = Lt.Altun_riedel.synthesize any_bit;
    st = { pc = 0; acc = 0; halted = false; steps = 0 } }

let lattice_sites m =
  Arith.adder_area m.alu + Arith.adder_area m.pc_alu
  + Lt.Lattice.area m.nonzero

let peek m addr = of_bits (Memory.read m.dmem ~addr)

let poke m addr value =
  Memory.write m.dmem ~addr (to_bits m.bits (value land m.mask))

(* all architectural arithmetic goes through the lattice adders *)
let alu_add m a b = Arith.add m.alu (a land m.mask) (b land m.mask) land m.mask

let alu_sub m a b =
  (* two's complement through the same adder: a + ~b + 1 *)
  let nb = lnot b land m.mask in
  alu_add m (alu_add m a nb) 1

let acc_nonzero m = Lt.Lattice.eval_int m.nonzero (m.st.acc land m.mask)

let decode word = (word land 7, (word lsr 3) land 0xff)

let step m =
  if not m.st.halted then begin
    if m.st.pc >= m.program_length then
      m.st <- { m.st with halted = true }
    else begin
      let op, arg = decode (of_bits (Memory.read m.imem ~addr:m.st.pc)) in
      let next_pc = Arith.add m.pc_alu m.st.pc 1 land 0xff in
      let st = m.st in
      let st' =
        match op with
        | 0 -> { st with acc = arg land m.mask; pc = next_pc }
        | 1 -> { st with acc = peek m arg; pc = next_pc }
        | 2 ->
            poke m arg st.acc;
            { st with pc = next_pc }
        | 3 -> { st with acc = alu_add m st.acc (peek m arg); pc = next_pc }
        | 4 -> { st with acc = alu_sub m st.acc (peek m arg); pc = next_pc }
        | 5 -> { st with pc = arg }
        | 6 -> { st with pc = (if acc_nonzero m then arg else next_pc) }
        | 7 -> { st with halted = true }
        | _ -> assert false
      in
      m.st <- { st' with steps = st.steps + 1 }
    end
  end

let max_steps = 10_000

let run m =
  let rec go () =
    if m.st.halted || m.st.steps >= max_steps then m.st
    else begin
      step m;
      go ()
    end
  in
  go ()

let assemble_sum_1_to_n ~n =
  if n < 1 || n > 20 then invalid_arg "assemble_sum_1_to_n: n in 1..20";
  [ Ldi 1; Sta 2;        (* const 1 *)
    Ldi n; Sta 1;        (* counter = n *)
    Ldi 0; Sta 0;        (* sum = 0 *)
    (* loop: *)
    Lda 0; Add 1; Sta 0; (* sum += counter *)
    Lda 1; Sub 2; Sta 1; (* counter -= 1 *)
    Jnz 6;               (* while counter <> 0 *)
    Hlt ]

let assemble_fibonacci ~steps =
  if steps < 1 || steps > 12 then invalid_arg "assemble_fibonacci: steps in 1..12";
  [ Ldi 1; Sta 2;          (* const 1 *)
    Ldi 0; Sta 0;          (* a = F(0) *)
    Ldi 1; Sta 1;          (* b = F(1) *)
    Ldi steps; Sta 3;      (* counter *)
    (* loop: *)
    Lda 0; Add 1; Sta 4;   (* t = a + b *)
    Lda 1; Sta 0;          (* a = b *)
    Lda 4; Sta 1;          (* b = t *)
    Lda 3; Sub 2; Sta 3;   (* counter -= 1 *)
    Jnz 8;
    Hlt ]

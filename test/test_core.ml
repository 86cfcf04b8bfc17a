(* Tests for Nxc_suite and Nxc_core: benchmark sanity, cross-technology
   synthesis, the end-to-end Fig. 2 flow, and the WP3/WP4 extensions
   (adder, comparator, multiplier, memory, state machines). *)

open Nxc_logic
module R = Nxc_reliability
module Lt = Nxc_lattice

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Benchmark suite                                                     *)
(* ------------------------------------------------------------------ *)

let suite_tests =
  [
    Alcotest.test_case "names are unique" `Quick (fun () ->
        let names = List.map (fun b -> b.Nxc_suite.name) (Nxc_suite.all ()) in
        check_int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "suite is nontrivial" `Quick (fun () ->
        check "30+ benchmarks" true (List.length (Nxc_suite.all ()) >= 30);
        List.iter
          (fun b ->
            check "not constant" true
              (Boolfunc.is_const b.Nxc_suite.func = None))
          (Nxc_suite.all ()));
    Alcotest.test_case "known values" `Quick (fun () ->
        let f name = (Option.get (Nxc_suite.by_name name)).Nxc_suite.func in
        check "xor3 101" false (Boolfunc.eval_int (f "xor3") 0b101);
        check "xor3 100" true (Boolfunc.eval_int (f "xor3") 0b100);
        check "maj5 11100" true (Boolfunc.eval_int (f "maj5") 0b00111);
        check "maj5 11000" false (Boolfunc.eval_int (f "maj5") 0b00011);
        (* gt2: a=3, b=1 -> fields a=low bits *)
        check "gt2 3>1" true (Boolfunc.eval_int (f "gt2") (3 lor (1 lsl 2)));
        check "gt2 1>3" false (Boolfunc.eval_int (f "gt2") (1 lor (3 lsl 2))));
    Alcotest.test_case "rd53 counts ones" `Quick (fun () ->
        let rd53 =
          List.find
            (fun m -> m.Nxc_suite.multi_name = "rd53")
            (Nxc_suite.multi_output ())
        in
        List.iter
          (fun m ->
            let expected =
              let rec pop m = if m = 0 then 0 else (m land 1) + pop (m lsr 1) in
              pop m
            in
            let got =
              List.fold_left
                (fun acc (b, f) ->
                  if Boolfunc.eval_int f m then acc lor (1 lsl b) else acc)
                0
                (List.mapi (fun b f -> (b, f)) rd53.Nxc_suite.outputs)
            in
            check_int "weight" expected got)
          (List.init 32 Fun.id));
    Alcotest.test_case "d_reducible members really are" `Quick (fun () ->
        List.iter
          (fun b ->
            check b.Nxc_suite.name true
              (Affine.d_reduction b.Nxc_suite.func <> None))
          (Nxc_suite.d_reducible ()));
    Alcotest.test_case "by_name" `Quick (fun () ->
        check "hit" true (Nxc_suite.by_name "fig4" <> None);
        check "miss" true (Nxc_suite.by_name "nonexistent" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Synth + Report                                                      *)
(* ------------------------------------------------------------------ *)

let synth_tests =
  [
    Alcotest.test_case "paper example sizes" `Quick (fun () ->
        let impl = Nxc_core.Synth.synthesize (Parse.expr "x1x2 + x1'x2'") in
        let s = Nxc_core.Synth.sizes impl in
        check "diode 2x5" true (s.Nxc_core.Synth.diode_size = Some (2, 5));
        check "fet 4x4" true (s.Nxc_core.Synth.fet_size = Some (4, 4));
        check "ar 2x2" true (s.Nxc_core.Synth.ar_size = (2, 2));
        check "verified" true (Nxc_core.Synth.verify impl));
    Alcotest.test_case "whole core suite verifies" `Slow (fun () ->
        List.iter
          (fun b ->
            let impl = Nxc_core.Synth.synthesize b.Nxc_suite.func in
            if not (Nxc_core.Synth.verify impl) then
              Alcotest.failf "%s failed verification" b.Nxc_suite.name)
          (Nxc_suite.core ()));
    Alcotest.test_case "constants degrade gracefully" `Quick (fun () ->
        let impl =
          Nxc_core.Synth.synthesize (Boolfunc.of_fun_int 3 (fun _ -> true))
        in
        check "no diode" true (impl.Nxc_core.Synth.diode = None);
        check "no fet" true (impl.Nxc_core.Synth.fet = None);
        check "verified" true (Nxc_core.Synth.verify impl));
    Testutil.qtest ~count:100 "ar lattice is the Altun-Riedel lattice"
      (Testutil.arb_table_sized 5) (fun tt ->
        let f = Boolfunc.make tt in
        Nxc_oracle.Lattice_ref.equal
          (Nxc_core.Synth.synthesize f).Nxc_core.Synth.ar_lattice
          (Lt.Altun_riedel.synthesize f));
    Alcotest.test_case "report renders every row" `Quick (fun () ->
        let rows =
          List.map
            (fun b ->
              Nxc_core.Synth.sizes (Nxc_core.Synth.synthesize b.Nxc_suite.func))
            [ List.hd (Nxc_suite.core ()) ]
        in
        let table = Nxc_core.Report.size_table rows in
        check "has header" true
          (String.length table > 0 && String.sub table 0 4 = "name");
        (* the table's last line is the comparison summary *)
        let lines = String.split_on_char '\n' table in
        check "summary is substantial" true
          (String.length (List.nth lines (List.length lines - 1)) > 10));
  ]

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let flow_tests =
  [
    Alcotest.test_case "flow on a perfect chip" `Quick (fun () ->
        let chip = R.Defect.perfect ~rows:16 ~cols:16 in
        let r =
          Nxc_core.Flow.run (R.Rng.create 61) ~chip (Parse.expr "x1x2 + x1'x2'")
        in
        check "mapped" true r.Nxc_core.Flow.bism.R.Bism.success;
        check "functional" true r.Nxc_core.Flow.functional);
    Alcotest.test_case "flow on a defective chip still functions" `Quick
      (fun () ->
        let chip =
          R.Defect.generate (R.Rng.create 62) ~rows:24 ~cols:24
            (R.Defect.uniform 0.05)
        in
        let r =
          Nxc_core.Flow.run (R.Rng.create 63) ~chip
            (Parse.expr "x1x2 + x2x3 + x1'x3'")
        in
        check "mapped" true r.Nxc_core.Flow.bism.R.Bism.success;
        check "functional despite chip defects" true r.Nxc_core.Flow.functional);
    Alcotest.test_case "defects corrupt an unmapped (bad) placement" `Quick
      (fun () ->
        (* place on a deliberately defective region: stuck-open on every
           crosspoint kills any lattice with a conducting path *)
        let chip = ref (R.Defect.perfect ~rows:4 ~cols:4) in
        for r = 0 to 3 do
          for c = 0 to 3 do
            chip := R.Defect.with_defect !chip r c R.Defect.Stuck_open
          done
        done;
        let f = Parse.expr "x1x2 + x1'x2'" in
        let lattice = Lt.Altun_riedel.synthesize f in
        let mapping =
          { R.Bism.row_map = [| 0; 1 |]; col_map = [| 0; 1 |] }
        in
        let faulty = Nxc_core.Flow.lattice_with_defects lattice !chip mapping in
        check "broken" false (Lt.Checker.equivalent faulty f));
  ]

(* ------------------------------------------------------------------ *)
(* Arith                                                               *)
(* ------------------------------------------------------------------ *)

let arith_tests =
  [
    Alcotest.test_case "4-bit ripple adder is exhaustive-correct" `Quick
      (fun () ->
        let a = Nxc_core.Arith.ripple_adder 4 in
        for x = 0 to 15 do
          for y = 0 to 15 do
            check_int
              (Printf.sprintf "%d+%d" x y)
              (x + y)
              (Nxc_core.Arith.add a x y)
          done
        done);
    Alcotest.test_case "adder area scales linearly" `Quick (fun () ->
        let a2 = Nxc_core.Arith.ripple_adder 2 in
        let a8 = Nxc_core.Arith.ripple_adder 8 in
        check_int "4x area" (4 * Nxc_core.Arith.adder_area a2)
          (Nxc_core.Arith.adder_area a8));
    Alcotest.test_case "comparator is exhaustive-correct" `Quick (fun () ->
        let c = Nxc_core.Arith.less_than 3 in
        for x = 0 to 7 do
          for y = 0 to 7 do
            check (Printf.sprintf "%d<%d" x y) (x < y)
              (Nxc_core.Arith.compare_lt c x y)
          done
        done);
    Alcotest.test_case "2x2 multiplier" `Quick (fun () ->
        let m = Nxc_core.Arith.multiplier_2x2 () in
        for x = 0 to 3 do
          for y = 0 to 3 do
            check_int
              (Printf.sprintf "%d*%d" x y)
              (x * y)
              (Nxc_core.Arith.multiply_2x2 m x y)
          done
        done);
    Alcotest.test_case "operand range checks" `Quick (fun () ->
        let a = Nxc_core.Arith.ripple_adder 2 in
        check "raises" true
          (match Nxc_core.Arith.add a 4 0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let memory_tests =
  [
    Alcotest.test_case "write/read roundtrip" `Quick (fun () ->
        let m = Nxc_core.Memory.create ~words:8 ~width:8 ~spares:0 () in
        let word = [| true; false; true; true; false; false; true; false |] in
        Nxc_core.Memory.write m ~addr:3 word;
        Alcotest.(check (array bool)) "roundtrip" word (Nxc_core.Memory.read m ~addr:3);
        Alcotest.(check (array bool))
          "other addresses untouched" (Array.make 8 false)
          (Nxc_core.Memory.read m ~addr:4));
    Alcotest.test_case "spare rows repair defects" `Quick (fun () ->
        (* defects on physical rows 1 and 3; two spares absorb them *)
        let chip = ref (R.Defect.perfect ~rows:6 ~cols:4) in
        chip := R.Defect.with_defect !chip 1 2 R.Defect.Stuck_open;
        chip := R.Defect.with_defect !chip 3 0 R.Defect.Stuck_closed;
        let m =
          Nxc_core.Memory.create ~chip:!chip ~words:4 ~width:4 ~spares:2 ()
        in
        check "repaired" true (Nxc_core.Memory.defect_free m);
        check_int "two rows remapped or shifted" 3
          (Nxc_core.Memory.repaired_rows m);
        let word = [| true; true; false; true |] in
        Nxc_core.Memory.write m ~addr:1 word;
        Alcotest.(check (array bool)) "roundtrip" word (Nxc_core.Memory.read m ~addr:1));
    Alcotest.test_case "insufficient spares rejected" `Quick (fun () ->
        let chip = ref (R.Defect.perfect ~rows:4 ~cols:4) in
        chip := R.Defect.with_defect !chip 0 0 R.Defect.Stuck_open;
        chip := R.Defect.with_defect !chip 1 0 R.Defect.Stuck_open;
        check "raises" true
          (match
             Nxc_core.Memory.create ~chip:!chip ~words:3 ~width:4 ~spares:1 ()
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "unrepaired defects corrupt reads" `Quick (fun () ->
        (* no spares and a stuck-closed cell: the read must show it *)
        let chip =
          R.Defect.with_defect
            (R.Defect.perfect ~rows:2 ~cols:2)
            0 1 R.Defect.Stuck_closed
        in
        match Nxc_core.Memory.create ~chip ~words:2 ~width:2 ~spares:0 () with
        | exception Invalid_argument _ -> () (* also acceptable: refused *)
        | _ -> Alcotest.fail "expected refusal without spares");
  ]

(* ------------------------------------------------------------------ *)
(* Ssm                                                                 *)
(* ------------------------------------------------------------------ *)

let ssm_tests =
  [
    Alcotest.test_case "mod-8 counter counts" `Quick (fun () ->
        let c = Nxc_core.Ssm.counter ~bits:3 in
        let trace = Nxc_core.Ssm.run c ~init:0 [ 1; 1; 1; 0; 1; 1; 1; 1; 1; 1 ] in
        let states = List.map fst trace in
        Alcotest.(check (list int)) "sequence"
          [ 1; 2; 3; 3; 4; 5; 6; 7; 0; 1 ]
          states);
    Alcotest.test_case "counter equals its reference" `Quick (fun () ->
        let c = Nxc_core.Ssm.counter ~bits:4 in
        check "equivalent" true
          (Nxc_core.Ssm.equivalent_to c ~reference:(fun ~state ~input ->
               let next = if input = 1 then (state + 1) land 15 else state in
               (next, state))));
    Alcotest.test_case "sequence detector finds 101 with overlap" `Quick
      (fun () ->
        let d = Nxc_core.Ssm.sequence_detector ~pattern:[ true; false; true ] in
        (* input 1 0 1 0 1 1 0 1 : accepts at positions 3, 5, 8 (1-based) *)
        let trace =
          Nxc_core.Ssm.run d ~init:0 [ 1; 0; 1; 0; 1; 1; 0; 1 ]
        in
        let accepts = List.map snd trace in
        Alcotest.(check (list int)) "accept flags"
          [ 0; 0; 1; 0; 1; 0; 0; 1 ]
          accepts);
    Alcotest.test_case "detector equals a brute-force reference" `Quick
      (fun () ->
        let pattern = [ true; true; false; true ] in
        let d = Nxc_core.Ssm.sequence_detector ~pattern in
        (* feed a long pseudorandom stream and compare against direct
           window matching *)
        let rng = R.Rng.create 71 in
        let stream = List.init 300 (fun _ -> R.Rng.int rng 2) in
        let trace = Nxc_core.Ssm.run d ~init:0 stream in
        let bits = Array.of_list (List.map (fun i -> i = 1) stream) in
        let pat = Array.of_list pattern in
        List.iteri
          (fun i (_, out) ->
            let expected =
              i + 1 >= Array.length pat
              && Array.for_all Fun.id
                   (Array.init (Array.length pat) (fun j ->
                        bits.(i + 1 - Array.length pat + j) = pat.(j)))
            in
            check_int (Printf.sprintf "position %d" i) (Bool.to_int expected) out)
          trace);
    Alcotest.test_case "logic area is positive and reported" `Quick (fun () ->
        let c = Nxc_core.Ssm.counter ~bits:2 in
        check "area" true (Nxc_core.Ssm.logic_area c > 0));
    Alcotest.test_case "arity validation" `Quick (fun () ->
        check "raises" true
          (match
             Nxc_core.Ssm.make ~n_inputs:1 ~state_bits:1
               ~next_state:[| Parse.expr ~n:3 "x1" |]
               ~outputs:[||]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_tests =
  [
    Alcotest.test_case "sum 1..5 executes on the fabric" `Quick (fun () ->
        let m =
          Nxc_core.Machine.create ~word_bits:8 ~data_words:8
            ~program:(Nxc_core.Machine.assemble_sum_1_to_n ~n:5)
            ()
        in
        let final = Nxc_core.Machine.run m in
        check "halted" true final.Nxc_core.Machine.halted;
        check_int "1+2+..+5" 15 (Nxc_core.Machine.peek m 0));
    Alcotest.test_case "sums match closed form for n in 1..10" `Quick (fun () ->
        for n = 1 to 10 do
          let m =
            Nxc_core.Machine.create ~word_bits:8 ~data_words:8
              ~program:(Nxc_core.Machine.assemble_sum_1_to_n ~n)
              ()
          in
          ignore (Nxc_core.Machine.run m);
          check_int (Printf.sprintf "sum to %d" n) (n * (n + 1) / 2)
            (Nxc_core.Machine.peek m 0)
        done);
    Alcotest.test_case "fibonacci" `Quick (fun () ->
        let fib = [| 0; 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144 |] in
        List.iter
          (fun steps ->
            let m =
              Nxc_core.Machine.create ~word_bits:8 ~data_words:8
                ~program:(Nxc_core.Machine.assemble_fibonacci ~steps)
                ()
            in
            ignore (Nxc_core.Machine.run m);
            check_int
              (Printf.sprintf "F(%d)" steps)
              fib.(steps)
              (Nxc_core.Machine.peek m 0))
          [ 1; 2; 5; 8; 12 ]);
    Alcotest.test_case "subtraction wraps modulo the word" `Quick (fun () ->
        let m =
          Nxc_core.Machine.create ~word_bits:4 ~data_words:4
            ~program:
              Nxc_core.Machine.[ Ldi 3; Sta 0; Ldi 1; Sub 0; Sta 1; Hlt ]
            ()
        in
        ignore (Nxc_core.Machine.run m);
        (* 1 - 3 = -2 = 14 mod 16 *)
        check_int "wrap" 14 (Nxc_core.Machine.peek m 1));
    Alcotest.test_case "jmp and halt" `Quick (fun () ->
        let m =
          Nxc_core.Machine.create ~word_bits:4 ~data_words:2
            ~program:Nxc_core.Machine.[ Jmp 3; Ldi 9; Sta 0; Hlt ]
            ()
        in
        let final = Nxc_core.Machine.run m in
        check "halted" true final.Nxc_core.Machine.halted;
        check_int "skipped the store" 0 (Nxc_core.Machine.peek m 0);
        check_int "three steps: jmp out of.. fetch, hlt" 2
          final.Nxc_core.Machine.steps);
    Alcotest.test_case "step bound stops runaway programs" `Quick (fun () ->
        let m =
          Nxc_core.Machine.create ~word_bits:4 ~data_words:2
            ~program:Nxc_core.Machine.[ Jmp 0 ]
            ()
        in
        let final = Nxc_core.Machine.run m in
        check "not halted" false final.Nxc_core.Machine.halted;
        check_int "bounded" 10_000 final.Nxc_core.Machine.steps);
    Alcotest.test_case "lattice sites are accounted" `Quick (fun () ->
        let m =
          Nxc_core.Machine.create ~word_bits:8 ~data_words:4
            ~program:Nxc_core.Machine.[ Hlt ]
            ()
        in
        check "positive" true (Nxc_core.Machine.lattice_sites m > 0));
    Testutil.qtest ~count:100 "random straight-line programs match a reference"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 25) (pair (int_bound 4) (int_bound 255)))
      (fun spec ->
        let data_words = 8 and mask = 255 in
        let program =
          List.map
            (fun (op, arg) ->
              let addr = arg mod data_words in
              match op with
              | 0 -> Nxc_core.Machine.Ldi arg
              | 1 -> Nxc_core.Machine.Lda addr
              | 2 -> Nxc_core.Machine.Sta addr
              | 3 -> Nxc_core.Machine.Add addr
              | _ -> Nxc_core.Machine.Sub addr)
            spec
          @ [ Nxc_core.Machine.Hlt ]
        in
        (* reference interpreter in plain OCaml *)
        let mem = Array.make data_words 0 and acc = ref 0 in
        List.iter
          (fun instr ->
            match instr with
            | Nxc_core.Machine.Ldi x -> acc := x land mask
            | Nxc_core.Machine.Lda a -> acc := mem.(a)
            | Nxc_core.Machine.Sta a -> mem.(a) <- !acc
            | Nxc_core.Machine.Add a -> acc := (!acc + mem.(a)) land mask
            | Nxc_core.Machine.Sub a -> acc := (!acc - mem.(a)) land mask
            | Nxc_core.Machine.Jmp _ | Nxc_core.Machine.Jnz _
            | Nxc_core.Machine.Hlt ->
                ())
          program;
        let m =
          Nxc_core.Machine.create ~word_bits:8 ~data_words ~program ()
        in
        let final = Nxc_core.Machine.run m in
        final.Nxc_core.Machine.halted
        && final.Nxc_core.Machine.acc = !acc
        && List.for_all
             (fun a -> Nxc_core.Machine.peek m a = mem.(a))
             (List.init data_words Fun.id));
  ]

let () =
  Alcotest.run "core"
    [
      ("suite", suite_tests);
      ("synth", synth_tests);
      ("flow", flow_tests);
      ("arith", arith_tests);
      ("memory", memory_tests);
      ("ssm", ssm_tests);
      ("machine", machine_tests);
    ]

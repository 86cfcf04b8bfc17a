.PHONY: build test check doc bench bench-smoke svcbench-smoke \
  svcbench-digests smoke chaos unused-exports clean

build:
	dune build @all

test:
	dune runtest

# API reference via odoc; skipped with a notice when odoc is not
# installed (the docs are .mli comments either way)
doc:
	@if dune build @doc 2>/dev/null; then \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# the tier-1 gate: everything compiles (including examples and bench),
# every test — unit, property, cram, bench smoke — passes, the kernel
# determinism/speedup gates hold, and the odoc pages build when odoc is
# available
check:
	dune build @all
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) doc

# extended chaos sweep: the dune test runs ~250 adversarial cases,
# this cranks it up; override CHAOS_RUNS/CHAOS_SEED as needed
chaos:
	CHAOS_RUNS=$${CHAOS_RUNS:-5000} dune exec test/chaos/chaos.exe

# full experiment sweep; writes BENCH_results.json
bench:
	dune exec bench/main.exe

# small-N perf-regression pass: run the kernel + service experiments
# with the determinism headline flags and gate on them (identical:true
# must hold, the bit-sliced lattice and BIST kernels and the packed-key
# NPN search keep their >= 4x margins over the scalar paths, E6 stays
# under its 8s wall-clock
# floor, SERVICE keeps its warm hit rate, LOADGEN publishes finite
# quantiles, E1/E11 publish their covering provenance, E1/E11/E18 keep
# their count of covers certified minimum by a checked lower bound, E3/E4
# keep the suite's lattice sizes, and E18 proves the SAT backends agree with bnb
# and rescue chips hybrid BISM missed);
# the gate table lives in docs/PERFORMANCE.md
bench-smoke:
	BENCH_OUT=bench_smoke.json dune exec bench/main.exe -- BITSLICE BISTSLICE NPNKEY E6 PAR SERVICE LOADGEN E17 E1 E3 E4 E11 E18
	dune exec tools/bench_check.exe -- bench_smoke.json

# one short traced run of each service-benchmark workload; fails unless
# the run's last line reports "correct":true (every envelope checked,
# stored simulation digests matched, and the traced replay's memo and
# cache counts equal the engine's).  About 15 seconds on two cores.
svcbench-smoke:
	@for w in serve_npn batch_synth_cold batch_reliability; do \
	  last=$$(bash svcbench/run.sh --workload $$w --seed 3 --seconds 1 \
	    --trace 1 | tail -n 1); \
	  case "$$last" in \
	    *'"correct":true'*) echo "svcbench-smoke: $$w correct" ;; \
	    *) echo "svcbench-smoke: $$w FAILED: $$last"; exit 1 ;; \
	  esac; \
	done

# every stored simulation digest, not just one seed's: regenerate the
# digests of seeds 0-63 of both batch workloads from the current
# sources and diff them against svcbench/digests.txt (same order).
# Reads svcbench/ only.  About 80 seconds on two cores.
svcbench-digests:
	dune build ./svcbench/main.exe
	./_build/default/svcbench/main.exe --write-digests 0 63 \
	  | diff svcbench/digests.txt - \
	  && echo "svcbench-digests: all $$(wc -l < svcbench/digests.txt) equal"

# gate: for every val in lib/**/*.mli, how many files outside its
# module use it in bin/ lib/ examples/ and in test/ bench/ tools/
# svcbench/, and whether its own module does; then, for every optional
# parameter of those vals, how many call sites set it (resolved from
# the typed trees that `dune build @check` leaves in _build).  Exits 1
# on an uncalled export, a test-only export whose "Test-only:" reason
# names no file that uses it, or a parameter only tests set.
unused-exports:
	dune build @check
	dune exec tools/unused_exports.exe

# quick end-to-end exercise of the observability surface
smoke:
	dune exec bench/main.exe -- E1
	dune exec bin/nanoxcomp.exe -- flow "x1x2 + x1'x2'" \
	  --trace=trace.json --trace-format=chrome --metrics
	dune exec bin/nanoxcomp.exe -- stats "x1 ^ x2" --seed 3

clean:
	dune clean
	rm -f trace.json .nxc-cache results.jsonl bench_smoke.json \
	  flight.jsonl events.jsonl
